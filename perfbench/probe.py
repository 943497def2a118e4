"""Per-layer spans for the traced benchmark run.

:class:`Probe` wraps the program's public functions and instance methods
from the outside, records one span per call (name, request id, start,
end, parent span) in memory, and restores every original on
:meth:`Probe.uninstall`.  Nothing inside ``src/`` is edited: the spans
sit at the layer boundaries a caller can see.

Counts the program already keeps (cache hits, SPD memo misses, trace
fallbacks) are read from the program's own metrics registry, which the
probe installs for the traced window only.
"""

from __future__ import annotations

import itertools
import threading
import types
from collections import defaultdict, deque
from statistics import median
from time import perf_counter

_SERIAL = "sched-serial latency_p50_ms"
_TRAIN = "train-epoch throughput_per_s"
_FLUSH_RATE = "flush-window throughput_per_s"
_FLUSH_TAIL = "flush-window latency_tail_ms"

#: per-layer metric -> the end-to-end metrics (workload and metric) it
#: should move.  Kept here because BENCHMARK.json's per_layer entries
#: carry only name, unit and direction.  The trace metrics should not
#: move sched-serial or train-epoch, which never replay a plan.
#: sched-serial is not among the judged workloads but still runs.
MOVES = {
    "perf.cache.graph_key_ms": (_SERIAL, _FLUSH_RATE),
    "features.encode_ms": (_SERIAL, _FLUSH_RATE),
    "serve.encoding_hit_frac": (_SERIAL, _FLUSH_RATE),
    "perf.batching.spd_ms": (_SERIAL, _FLUSH_RATE),
    "perf.batching.spd_miss_frac": (_SERIAL, _FLUSH_RATE),
    "serve.batcher.queue_wait_ms": (_SERIAL, _FLUSH_RATE),
    "serve.batcher.batch_size_mean": (_SERIAL, _FLUSH_RATE),
    "serve.batcher.deadline_flush_frac": (_SERIAL, _FLUSH_RATE),
    "serve.result_hit_frac": ("flush-window latency_p50_ms",),
    "serve.shed_frac": ("flush-window latency_p50_ms",),
    "serve.forward_ms": ("flush-window latency_p50_ms",),
    "tensor.trace.miss_frac": (_FLUSH_RATE, _FLUSH_TAIL),
    "tensor.trace.miss_ms": (_FLUSH_RATE, _FLUSH_TAIL),
    "tensor.trace.hit_ms": (_FLUSH_RATE, _FLUSH_TAIL),
    "tensor.trace.evictions": (_FLUSH_RATE, _FLUSH_TAIL),
    "tensor.trace.fallbacks": (_FLUSH_RATE, _FLUSH_TAIL),
    "perf.batching.collate_ms": (_FLUSH_TAIL,),
    "perf.batching.pad_waste_frac": (_FLUSH_TAIL,),
    "core.anee_ms": (_SERIAL, _TRAIN),
    "core.graphormer_ms": (_SERIAL, _TRAIN),
    "core.decoder_ms": (_SERIAL, _TRAIN),
    "core.head_ms": (_SERIAL, _TRAIN),
    "tensor.backward_ms": (_TRAIN,),
    "tensor.optim.step_ms": (_TRAIN,),
    "core.trainer.forward_ms": (_TRAIN,),
}

#: request stages that run one after another for a lone request; their
#: sum should account for the request's latency on sched-serial
STAGES = ("perf.cache.graph_key", "features.encode", "perf.batching.spd",
          "serve.batcher.queue_wait", "serve.forward")

_BLOCKS = ("core.anee", "core.graphormer", "core.decoder", "core.head")


class Probe:
    """Outside-in span recorder for one traced window."""

    def __init__(self):
        self.spans: list[tuple] = []   # (id, parent, name, rid, t0, t1, info)
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._undo: list = []
        self._submitted: dict[int, deque] = defaultdict(deque)
        self.registry = None
        self.executor = None

    # -- request identity ------------------------------------------------ #
    def set_rid(self, rid) -> None:
        """Tag the calling thread's next spans with request ``rid``."""
        self._tls.rid = rid

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _record(self, name, t0, t1, parent, rid=None, info=None, sid=None):
        self.spans.append((sid or next(self._ids), parent, name,
                           getattr(self._tls, "rid", None) if rid is None
                           else rid, t0, t1, info))

    # -- wrapping -------------------------------------------------------- #
    def _patch(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``; undone later."""
        original = getattr(owner, attr)
        if isinstance(owner, (type, types.ModuleType)) \
                or attr in vars(owner):
            self._undo.append((owner, attr, vars(owner)[attr]))
        else:  # a bound method: undo by dropping the instance attribute
            self._undo.append((owner, attr, None))
        setattr(owner, attr, make(original))

    def _timed(self, name: str, fn, info=None, skip_in_replay=False):
        """Wrap ``fn`` so each call records a span named ``name``."""
        probe = self

        def wrapper(*args, **kwargs):
            if skip_in_replay and getattr(probe._tls, "in_replay", 0):
                return fn(*args, **kwargs)
            stack = probe._stack()
            parent = stack[-1] if stack else 0
            sid = next(probe._ids)
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
            probe._record(name, t0, t1, parent, sid=sid,
                          info=info(args, out) if info else None)
            return out
        return wrapper

    def install(self, model, service=None, trainer=None) -> None:
        """Wrap every layer the workload reaches; install the registry.

        The same registry is reinstalled on every call, so its counts add
        up over all the windows the probe has been installed for.
        """
        import repro.perf.batching as batching
        import repro.serve.service as service_mod
        from repro.obs.metrics import install_registry
        from repro.tensor import Tensor

        self.registry = install_registry(self.registry)
        t = self._timed
        self._patch(service_mod, "graph_key",
                    lambda f: t("perf.cache.graph_key", f))
        self._patch(service_mod, "encode_graph",
                    lambda f: t("features.encode", f))
        self._patch(service_mod, "ensure_spd",
                    lambda f: t("perf.batching.spd", f))
        self._patch(batching, "spatial_encoding",
                    lambda f: t("perf.batching.spd.compute", f))
        self._patch(batching, "collate", lambda f: t(
            "perf.batching.collate", f,
            info=lambda a, out: (float(out.node_mask.size
                                       - out.node_mask.sum()),
                                 float(out.node_mask.size))))
        self._patch(Tensor, "backward", lambda f: t("tensor.backward", f))

        self._patch(model, "forward",
                    lambda f: t("core.forward", f, skip_in_replay=True))
        self._patch(model, "forward_batch",
                    lambda f: t("core.forward", f, skip_in_replay=True))
        blocks = [("core.anee", m) for m in model.anee] \
            + [("core.graphormer", m) for m in model.graphormer] \
            + [("core.decoder", model.decoder),
               ("core.head", model.head_fc1), ("core.head", model.head_fc2)]
        for name, module in blocks:
            self._patch(module, "forward",
                        lambda f, n=name: t(n, f, skip_in_replay=True))
            if hasattr(module, "forward_batch"):
                self._patch(module, "forward_batch",
                            lambda f, n=name: t(n, f, skip_in_replay=True))

        self.executor = model.traced_executor()
        self._patch(self.executor, "run", self._wrap_replay)
        if service is not None:
            self._patch(service.batcher, "submit", self._wrap_submit)
            self._patch(service.session, "predict_features",
                        self._wrap_forward)
        if trainer is not None:
            self._patch(trainer.optimizer, "step",
                        lambda f: t("tensor.optim.step", f))
            self._patch(trainer.optimizer, "zero_grad",
                        lambda f: t("tensor.optim.zero_grad", f))

    def uninstall(self) -> None:
        from repro.obs.metrics import uninstall_registry
        for owner, attr, original in reversed(self._undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        uninstall_registry()

    def _wrap_submit(self, submit):
        probe = self

        def wrapper(item):
            probe._submitted[id(item.feats)].append(
                (getattr(probe._tls, "rid", None), perf_counter()))
            return submit(item)
        return wrapper

    def _wrap_forward(self, predict_features):
        probe = self
        timed = self._timed("serve.forward", predict_features,
                            info=lambda a, out: len(a[0]))

        def wrapper(feats_list):
            now = perf_counter()
            rids = []
            for feats in feats_list:
                queue = probe._submitted.get(id(feats))
                if queue:
                    rid, t_submit = queue.popleft()
                    rids.append(rid)
                    probe._record("serve.batcher.queue_wait", t_submit,
                                  now, 0, rid=rid)
            probe.set_rid(rids[0] if len(rids) == 1 else None)
            return timed(feats_list)
        return wrapper

    def _wrap_replay(self, run):
        probe, cache = self, self.executor.cache

        def replay(*args, **kwargs):
            size, evictions = len(cache), cache.evictions
            probe._tls.in_replay = 1
            t0 = perf_counter()
            try:
                return run(*args, **kwargs)
            finally:
                t1 = perf_counter()
                probe._tls.in_replay = 0
                miss = len(cache) != size or cache.evictions != evictions
                probe._record("tensor.trace.run", t0, t1, 0,
                              info=(miss, cache.evictions - evictions))
        return replay

    # -- readout --------------------------------------------------------- #
    def counter(self, name: str) -> float:
        """A program counter's value in the probe's registry (0 if unset)."""
        if self.registry is None:
            return 0.0
        return float(sum(e["value"] for e in
                         self.registry.to_dict().get(name, [])))

    def _named(self, name: str) -> list[tuple]:
        return [s for s in self.spans if s[2] == name]

    def _durations(self, name: str) -> list[float]:
        return [s[5] - s[4] for s in self._named(name)]

    def layer_metrics(self, batcher: dict,
                      start: float) -> dict[str, float | None]:
        """Every per-layer metric of the window that opened at ``start``.

        Spans that began earlier (train-epoch's untimed first epoch) are
        dropped.  ``batcher`` holds the ``MicroBatcher.stats()`` counts of the
        window (dispatched requests and batches, deadline flushes).  A
        metric whose layer the workload never reached (no spans, or a
        zero denominator) is None, not a measured zero.
        """
        self.spans = [s for s in self.spans if s[4] >= start]

        def mean_ms(name):
            d = self._durations(name)
            return 1e3 * sum(d) / len(d) if d else None

        def frac(num, den):
            return num / den if den else None

        c = self.counter
        out = {
            "perf.cache.graph_key_ms": mean_ms("perf.cache.graph_key"),
            "features.encode_ms": mean_ms("features.encode"),
            "serve.encoding_hit_frac": frac(
                c("serve_encoding_cache_hits_total"),
                c("serve_encoding_cache_hits_total")
                + c("serve_encoding_cache_misses_total")),
            "perf.batching.spd_ms": mean_ms("perf.batching.spd"),
            "perf.batching.spd_miss_frac": frac(
                c("perf_spd_memo_misses_total"),
                c("perf_spd_memo_misses_total")
                + c("perf_spd_memo_hits_total")),
            "serve.batcher.queue_wait_ms":
                mean_ms("serve.batcher.queue_wait"),
            "serve.batcher.batch_size_mean": frac(
                batcher.get("requests_dispatched", 0),
                batcher.get("batches_dispatched", 0)),
            "serve.batcher.deadline_flush_frac": frac(
                batcher.get("deadline", 0),
                batcher.get("batches_dispatched", 0)),
            "serve.result_hit_frac": frac(
                c("serve_result_cache_hits_total"),
                c("serve_result_cache_hits_total")
                + c("serve_result_cache_misses_total")),
            "serve.shed_frac": frac(c("serve_shed_total"),
                                    c("serve_requests_total")),
            "serve.forward_ms": mean_ms("serve.forward"),
        }
        runs = self._named("tensor.trace.run")
        misses = [s for s in runs if s[6][0]]
        hits = [s for s in runs if not s[6][0]]
        out.update({
            "tensor.trace.miss_frac": frac(len(misses), len(runs)),
            "tensor.trace.miss_ms": frac(
                1e3 * sum(s[5] - s[4] for s in misses), len(misses)),
            "tensor.trace.hit_ms": frac(
                1e3 * sum(s[5] - s[4] for s in hits), len(hits)),
            "tensor.trace.evictions": float(sum(s[6][1] for s in runs))
            if runs else None,
            "tensor.trace.fallbacks": c("trace_fallback_total")
            if runs else None,
        })
        collates = [s[6] for s in self._named("perf.batching.collate")]
        out["perf.batching.collate_ms"] = mean_ms("perf.batching.collate")
        out["perf.batching.pad_waste_frac"] = frac(
            sum(p for p, _ in collates), sum(n for _, n in collates))
        forwards = len(self._durations("core.forward"))
        for block in _BLOCKS:
            out[block + "_ms"] = frac(1e3 * sum(self._durations(block)),
                                      forwards)
        out["tensor.backward_ms"] = mean_ms("tensor.backward")
        out["tensor.optim.step_ms"] = mean_ms("tensor.optim.step")
        out["core.trainer.forward_ms"] = self._trainer_forward_ms()
        return out

    def _trainer_forward_ms(self) -> float | None:
        """Mean time per step from ``zero_grad`` return to ``backward``."""
        zero = sorted(s[5] for s in self._named("tensor.optim.zero_grad"))
        back = sorted(s[4] for s in self._named("tensor.backward"))
        gaps = [b - z for z, b in zip(zero, back)]
        return 1e3 * sum(gaps) / len(gaps) if gaps else None

    def stage_sums(self, latencies: dict) -> dict:
        """Sum of :data:`STAGES` per request against its latency.

        ``latencies`` maps request id -> measured latency (seconds).
        Returns the median stage sum, the median latency and their ratio.
        """
        sums: dict = defaultdict(float)
        for s in self.spans:
            if s[2] in STAGES and s[3] in latencies:
                sums[s[3]] += s[5] - s[4]
        rids = [r for r in latencies if r in sums]
        if not rids:
            return {}
        stage = median(sums[r] for r in rids)
        lat = median(latencies[r] for r in rids)
        return {"stage_sum_p50_ms": 1e3 * stage,
                "latency_p50_ms": 1e3 * lat,
                "ratio": stage / lat if lat else 0.0,
                "requests": len(rids)}

    def span_records(self) -> list[list]:
        """Spans as JSON-ready rows, times relative to the first span."""
        if not self.spans:
            return []
        base = min(s[4] for s in self.spans)
        return [[sid, parent, name, rid, round(1e3 * (t0 - base), 4),
                 round(1e3 * (t1 - t0), 4), info]
                for sid, parent, name, rid, t0, t1, info in self.spans]
