"""Trace-and-replay suites: the compiled executor of the batched forward.

* **speedup** — traced replay vs the eager batched forward on the
  scheduler-loop workload: a drain-sized micro-batch of small graphs
  (the regime PerfSeer motivates — a predictor cheap enough to sit
  inside a scheduler loop).  Small graphs isolate the per-op Python
  dispatch, Tensor-graph bookkeeping, and allocation overhead the
  compiled tape eliminates; large graphs are matmul-bound and replay
  approaches 1x by construction.
* **equivalence** — traced vs eager predictions across the **full**
  model zoo under the production bucketing (``batch_size=8``).
* **serial** — single-graph predictions through a
  :class:`~repro.serve.ModelSession` vs direct
  :meth:`~repro.core.DNNOccu.predict`: must be bit-identical (a lone
  graph runs the eager batch of one on both sides).
* **fallback** — signature-miss behavior: replay-only mode raises
  :class:`~repro.tensor.trace.TraceMissError` on an unseen batch shape
  and the eager route serves the request.
"""

from __future__ import annotations

import numpy as np

from ..features import encode_graph
from ..gpu import get_device
from ..models import ModelConfig, build_model, list_models
from ..perf.batching import collate, ensure_spd
from ..serve import ModelSession
from ..tensor import TraceMissError, TracedExecutor, no_grad
from ..tensor.trace import batch_signature
from .timing import paired_medians
from .workloads import service_model

__all__ = ["bench_speedup", "speedup_line", "bench_equivalence",
           "equivalence_line", "bench_serial", "serial_line", "bench_fallback",
           "fallback_line"]

#: the scheduler-loop workload: one drain-sized micro-batch of small
#: graphs (fleet workers coalesce up to 8 queued requests into one
#: forward; rnn/lstm are the zoo's smallest graphs)
_TRACE_MODELS = ("rnn", "lstm")
_TRACE_BATCH_SIZES = (1, 2, 4)


def _encoded(names, batch_sizes, device) -> list:
    feats = [encode_graph(build_model(n, ModelConfig(batch_size=bs)),
                          device)
             for n in names for bs in batch_sizes]
    for f in feats:
        ensure_spd(f)
    return feats


def bench_speedup(scale: float) -> dict:
    """Traced vs eager batched forward on the micro-batch workload."""
    device = get_device("A100")
    model = service_model()
    feats = _encoded(_TRACE_MODELS, _TRACE_BATCH_SIZES, device)
    batch = collate(feats)
    pairs = max(11, int(round(11 * scale)))
    inner = max(10, int(round(20 * scale)))

    executor = TracedExecutor(model)
    with no_grad():
        executor.run(batch)  # compile outside the timed region

        def eager() -> None:
            for _ in range(inner):
                model.forward_batch(batch)

        def traced() -> None:
            for _ in range(inner):
                executor.run(batch)

        # One untimed pass of each loop: the first iterations in a fresh
        # process pay allocator growth and BLAS warmup, not replay cost.
        eager()
        traced()
        eager_s, traced_s = (t / inner
                             for t in paired_medians(eager, traced, pairs))
        diff = float(np.abs(
            executor.run(batch)
            - np.asarray(model.forward_batch(batch).data)).max())

    plan = executor.cache.get(batch_signature(batch))
    return {
        "models": list(_TRACE_MODELS),
        "batch_sizes": list(_TRACE_BATCH_SIZES),
        "num_graphs": batch.num_graphs,
        "pairs": pairs, "inner": inner,
        "eager_s": eager_s, "traced_s": traced_s,
        "speedup": eager_s / traced_s,
        "max_diff": diff,
        "tape_ops": len(plan.tape.ops),
        "replay_steps": len(plan.steps),
        "arena_bytes": plan.arena_bytes,
    }


def speedup_line(s: dict) -> str:
    return (f"traced {s['traced_s'] * 1e3:.2f}ms vs eager "
            f"{s['eager_s'] * 1e3:.2f}ms ({s['speedup']:.2f}x) on "
            f"{s['num_graphs']} graphs; tape {s['tape_ops']} ops -> "
            f"{s['replay_steps']} steps, arena "
            f"{s['arena_bytes'] / 1024:.0f} KiB, diff {s['max_diff']:.1e}")


def bench_equivalence(scale: float) -> dict:
    """Traced vs eager across the full zoo, production bucketing."""
    device = get_device("A100")
    model = service_model()
    names = list_models()
    feats = _encoded(names, (4,), device)
    eager = model.predict_batch(feats, batch_size=8)
    traced = model.predict_batch(feats, batch_size=8, traced=True)
    return {
        "models": names, "batch_size": 8,
        "max_diff": float(np.abs(eager - traced).max()),
    }


def equivalence_line(e: dict) -> str:
    return f"zoo max diff {e['max_diff']:.2e} over {len(e['models'])} models"


def bench_serial(scale: float) -> dict:
    """Singleton requests through a session stay bit-identical."""
    device = get_device("A100")
    model = service_model()
    session = ModelSession(model, device)
    feats = _encoded(_TRACE_MODELS + ("lenet", "alexnet"), (1, 8), device)
    direct = [model.predict(f) for f in feats]
    served = [session.predict_features([f])[0] for f in feats]
    return {
        "graphs": len(feats),
        "bit_identical": served == direct,
    }


def serial_line(s: dict) -> str:
    return f"{s['graphs']} singletons, bit-identical: {s['bit_identical']}"


def bench_fallback(scale: float) -> dict:
    """Signature miss: replay-only mode refuses, eager serves."""
    device = get_device("A100")
    model = service_model()
    executor = model.traced_executor()
    seen = collate(_encoded(("rnn",), (1, 2), device))
    # A different graph *count* and pad width: rnn/lstm share a node
    # count, so varying only batch_size would collide in signature.
    unseen = collate(_encoded(("lenet", "alexnet"), (1, 2, 4), device))
    with no_grad():
        executor.run(seen)
        miss_raised = False
        try:
            executor.run(unseen, allow_trace=False)
        except TraceMissError:
            miss_raised = True
        # predict_batch(traced=True) never sees the miss: it compiles
        # on first sight and falls back to eager on error.
        eager = np.asarray(model.forward_batch(unseen).data)
    traced = model.predict_batch(
        _encoded(("lenet", "alexnet"), (1, 2, 4), device), traced=True)
    return {
        "miss_raised": miss_raised,
        "fallback_max_diff": float(np.abs(eager - traced).max()),
        "cached_signatures": len(executor.cache.signatures()),
    }


def fallback_line(f: dict) -> str:
    return (f"miss raised={f['miss_raised']}, eager fallback diff "
            f"{f['fallback_max_diff']:.2e}")
