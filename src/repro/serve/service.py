"""Warm model session + synchronous prediction facade.

:class:`ModelSession` owns the preloaded model weights and one bounded
content-addressed result cache keyed by :func:`repro.perf.cache.graph_key`
(sha256 of graph content + device, simulator-agnostic): a repeated graph
skips encode, SPD *and* forward.  A miss encodes afresh; its SPD matrix
is memoized process-wide by graph structure
(:func:`repro.perf.batching.ensure_spd`).

:class:`PredictorService` is the client surface the scheduler and
colocation planner adopt: ``predict`` / ``predict_many`` /
``predict_async``, plus the ``wants_graph`` protocol so an instance
drops into :func:`repro.sched.make_job` unchanged.  Misses are coalesced
by the :class:`~repro.serve.batcher.MicroBatcher`; a full queue sheds the
request to a :class:`~repro.resilience.FallbackPredictor` chain instead
of queueing unbounded latency.

Every miss is forwarded and published by one size-bucketed step,
:meth:`ModelSession.forward`: :meth:`ModelSession.resolve` (bulk calls,
fleet workers) puts the cache lookup and encode in front of it, and a
queued flush calls it after the lookup and encode done at enqueue.

Numerical contract: :meth:`repro.core.DNNOccu.forward_batch` is the only
numeric body, and a direct ``model.predict`` is a batch of one.  Every
flush runs that eager forward, never traced replay (docs/compile.md), so
serial callers (the scheduler's per-job queries) reproduce direct
results bit for bit, and a member of a multi-request flush gets its
answer alone within 1e-6 (in practice ~1e-15; see docs/performance.md).
"""

from __future__ import annotations

import math
import time
from collections import OrderedDict

import numpy as np

from ..features import GraphFeatures, encode_graph
from ..gpu import DeviceSpec
from ..lint.sanitizer import new_lock
from ..obs import get_logger
from ..obs.context import request_scope, new_request_seq
from ..obs.flight import FlightRecorder
from ..obs.metrics import Histogram, counter, histogram
from ..obs.tracing import span, tracing_enabled
from ..perf.batching import bucket_by_size, ensure_spd
from ..perf.cache import graph_key
from ..resilience import FallbackPredictor, default_fallback_chain
from .batcher import MicroBatcher, QueueFullError, Ticket

__all__ = ["ModelSession", "PredictorService"]

_log = get_logger("serve.service")

#: capacity of a session's result cache
_CACHE_SIZE = 1024


class _LRU:
    """Tiny thread-safe bounded LRU (OrderedDict under a lock)."""

    def __init__(self):
        self._data: OrderedDict = OrderedDict()
        self._lock = new_lock("_LRU._lock")

    def get(self, key):
        with self._lock:
            try:
                self._data.move_to_end(key)
            except KeyError:
                return None
            return self._data[key]

    def put(self, key, value) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > _CACHE_SIZE:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def clear(self) -> None:
        with self._lock:
            self._data.clear()


class _Request:
    """One queued prediction request, as the dispatcher will see it.

    Carries the request/trace ids minted at enqueue plus enough identity
    (graph, device) for the flight recorder to describe the request after
    it resolves on the dispatcher thread.  (Span re-attachment across the
    queue is the :class:`~repro.serve.batcher.Ticket`'s job, not this
    one's.)
    """

    __slots__ = ("feats", "key", "start", "graph", "device", "rid", "tid")

    def __init__(self, feats, key, start, graph, device, rid, tid):
        self.feats = feats
        self.key = key
        self.start = start
        self.graph = graph
        self.device = device
        self.rid = rid
        self.tid = tid


class ModelSession:
    """Preloaded weights plus a content-addressed result cache.

    ``device`` is the default prediction target; per-call devices are
    honored (the content key includes the device, so entries never mix).
    """

    def __init__(self, model, device: DeviceSpec):
        self.model = model
        self.device = device
        self.results = _LRU()      # graph_key -> float

    def key_for(self, graph, device: DeviceSpec | None = None) -> str:
        return graph_key(graph, device or self.device)

    def encode(self, graph, device: DeviceSpec | None = None) \
            -> GraphFeatures:
        """Encode one (graph, device) pair and make its SPD ready."""
        feats = encode_graph(graph, device or self.device)
        ensure_spd(feats)
        return feats

    def cached(self, key: str, shared=None) -> "tuple[float, str] | None":
        """The cache tiers for one key: ``(value, tier)`` or None.

        ``tier`` is ``"lru"`` (the result cache) or ``"shared"`` (the
        optional ``shared`` :class:`~repro.perf.PredictionCache`, whose
        hits are promoted into the LRU).
        """
        value = self.results.get(key)
        if value is not None:
            counter("serve_result_cache_hits_total").inc()
            return value, "lru"
        counter("serve_result_cache_misses_total").inc()
        if shared is not None:
            value = shared.get(key)
            if value is not None:
                self.results.put(key, value)
                return value, "shared"
        return None

    def predict_features(self, feats_list) -> list[float]:
        """Forward 1..B encoded graphs on the calling thread.

        Always the eager batched forward: a traced plan is keyed by the
        exact batch shape, and flushes rarely repeat one often enough to
        repay its compile (docs/compile.md, "When replay pays").
        """
        return [float(v) for v in self.model.predict_batch(feats_list)]

    def forward(self, keys, feats, shared=None, *,
                batch_size: int) -> list[float]:
        """Forward encoded misses, publish them under ``keys`` to the
        result LRU (and ``shared``), and return them in input order.

        One ``serve.forward`` span per :func:`bucket_by_size` chunk of at
        most ``batch_size`` graphs.
        """
        out = [0.0] * len(feats)
        for idx, chunk in bucket_by_size(feats, batch_size):
            with span("serve.forward", batch=len(chunk)):
                values = self.predict_features(chunk)
            for j, value in zip(idx, values):
                out[j] = value
                # A non-finite answer goes back to its caller but is
                # never cached, so a poisoned input cannot keep answering
                # from a cache tier (or, on disk, outlive a restart).
                if math.isfinite(value):
                    self.results.put(keys[j], value)
                    if shared is not None:
                        shared.put(keys[j], value)
        return out

    def resolve(self, requests, shared=None, *,
                batch_size: int) -> "list[tuple[float, str]]":
        """Answer ``(graph, device)`` requests through the cache ladder.

        Each request tries :meth:`cached`; the misses are encoded and
        go through :meth:`forward`.  Returns one ``(value, tier)`` pair
        per request, in request order, with ``tier`` one of ``"lru"``,
        ``"shared"`` or ``"forward"``.
        """
        keys = [self.key_for(graph, device) for graph, device in requests]
        out = [self.cached(key, shared) for key in keys]
        miss = [pos for pos, hit in enumerate(out) if hit is None]
        values = self.forward(
            [keys[pos] for pos in miss],
            [self.encode(*requests[pos]) for pos in miss],
            shared, batch_size=batch_size)
        for pos, value in zip(miss, values):
            out[pos] = (value, "forward")
        return out


class PredictorService:
    """Synchronous micro-batched prediction facade over a warm session.

    Parameters
    ----------
    model:
        Anything with ``predict_batch(list)`` (normally a
        :class:`repro.core.DNNOccu`).  Ignored when ``session`` is given.
    device:
        Default :class:`~repro.gpu.DeviceSpec` for requests.
    session:
        A prebuilt :class:`ModelSession` (overrides model/device).
    max_batch_size / deadline_s / max_queue_depth:
        Batching knobs, forwarded to :class:`MicroBatcher`.
    fallback:
        :class:`FallbackPredictor` chain serving *shed* requests when the
        queue is full.  Defaults to the terminal constant tier (1.0 — the
        conservative "assume saturating" answer), so shedding is O(1);
        pass :func:`repro.resilience.default_fallback_chain` built with a
        model/analytical baseline for graceful gnn→analytical→constant
        degradation instead.
    flight_capacity:
        Ring size of the request :class:`~repro.obs.FlightRecorder`
        (last-N request records, always on).  0 disables recording —
        together with observability off, that removes per-request
        context creation entirely (the bench overhead guard's
        "untraced baseline").
    """

    #: make_job protocol: call me with (graph, device), not features.
    wants_graph = True

    def __init__(self, model=None, device: DeviceSpec | None = None, *,
                 session: ModelSession | None = None,
                 max_batch_size: int = 32, deadline_s: float = 0.002,
                 max_queue_depth: int = 256,
                 fallback: FallbackPredictor | None = None,
                 flight_capacity: int = 256):
        if session is None:
            if model is None or device is None:
                raise ValueError(
                    "need either a ModelSession or a (model, device) pair")
            session = ModelSession(model, device)
        self.session = session
        self.fallback = fallback if fallback is not None \
            else default_fallback_chain()
        self.flight = FlightRecorder(flight_capacity) \
            if flight_capacity > 0 else None
        self._device_name = getattr(session.device, "name", "?")
        self.batcher = MicroBatcher(
            self._dispatch_batch,
            max_batch_size=max_batch_size, deadline_s=deadline_s,
            max_queue_depth=max_queue_depth)
        # Local latency histogram: always populated (the registry copy
        # only exists while obs is enabled), feeds latency_quantiles().
        self._latency = Histogram("serve_latency_seconds")
        self._shed = 0
        self._deadline_sheds = 0
        self._requests = 0
        self._closed = False
        self._stat_lock = new_lock("PredictorService._stat_lock")

    # -- core request paths --------------------------------------------- #
    def predict(self, graph, device: DeviceSpec | None = None,
                timeout: float | None = None) -> float:
        """Predict occupancy for one graph, blocking until served.

        With ``timeout`` (seconds), a request still unresolved at the
        deadline is *shed*: the fallback chain answers synchronously and
        the caller returns immediately with that value.  The ticket is
        resolved with the fallback answer (first resolution wins), so
        the dispatcher's late result is discarded rather than racing —
        the value this call returned is the value every other observer
        of the ticket sees.
        """
        ticket = self.predict_async(graph, device)
        if timeout is None:
            return ticket.result()
        try:
            return ticket.result(timeout)
        except TimeoutError:
            return self._deadline_shed(ticket, graph, device)

    def predict_async(self, graph,
                      device: DeviceSpec | None = None) -> Ticket:
        """Enqueue one request; returns a :class:`Ticket`.

        Resolved immediately on a result-cache hit and on shed (the
        fallback chain runs synchronously on the calling thread — bounded
        latency is the whole point of shedding).

        With the flight recorder or tracing active, the request runs
        inside a :func:`~repro.obs.request_scope`: it gets a
        ``request_id``/``trace_id``, a ``serve.request`` root span, and
        one :class:`~repro.obs.FlightRecord` at completion.  With both
        off the original untraced fast path runs unchanged.
        """
        start = time.monotonic()
        self._count_request()
        if tracing_enabled():
            with request_scope() as ctx:
                with span("serve.request",
                          graph=getattr(graph, "name", "") or "<graph>"):
                    return self._request(graph, device, start,
                                         ctx.request_id, ctx.trace_id)
        if self.flight is not None:
            # Flight-only: mint a raw sequence number for the ring
            # without paying for a context scope or the id formatting
            # (the recorder formats at read time); the record carries
            # the "-" placeholder trace id.
            return self._request(graph, device, start,
                                 new_request_seq(), "-")
        return self._request(graph, device, start, None, None)

    def _request(self, graph, device, start: float, rid, tid) -> Ticket:
        """Cache lookup → encode → enqueue (or shed), one request."""
        key = self.session.key_for(graph, device)
        hit = self.session.cached(key)
        if hit is not None:
            ticket = Ticket()
            ticket.set_result(hit[0])
            elapsed = self._observe_latency(start)
            self._finish(rid, tid, graph, device, elapsed, "served",
                         "result_hit", hit[0])
            return ticket
        with span("serve.encode"):
            feats = self.session.encode(graph, device)
        try:
            with span("serve.enqueue"):
                return self.batcher.submit(
                    _Request(feats, key, start, graph, device, rid, tid))
        except QueueFullError:
            return self._shed_request(graph, device, start, rid, tid,
                                      reason="queue full")
        except RuntimeError:
            # Submission raced close(): the batcher is draining or gone.
            # A closed service still answers — synchronously, through
            # the fallback chain — instead of surfacing the internal
            # lifecycle error to the caller.
            return self._shed_request(graph, device, start, rid, tid,
                                      reason="closed")

    def predict_many(self, graphs, device: DeviceSpec | None = None) \
            -> np.ndarray:
        """Bulk path: size-bucketed batches, bypassing the request queue.

        The caller already holds the whole workload, so there is nothing
        to coalesce — chunks go straight to the batched forward (sorted
        by node count to minimize pad waste) and results scatter back to
        input order.  Cache semantics match :meth:`predict`.
        """
        graphs = list(graphs)
        if not tracing_enabled():
            return self._predict_many(graphs, device)
        with request_scope():
            with span("serve.predict_many", n=len(graphs)):
                return self._predict_many(graphs, device)

    def _predict_many(self, graphs, device) -> np.ndarray:
        self._count_request(len(graphs))
        answers = self.session.resolve(
            [(graph, device) for graph in graphs],
            batch_size=self.batcher.max_batch_size)
        return np.array([value for value, _ in answers], dtype=float)

    def __call__(self, graph, device: DeviceSpec | None = None) \
            -> tuple[float, float]:
        """Workload-predictor protocol (``wants_graph``): ``(mean, std)``.

        The GNN is deterministic given the graph, so the predictive std
        is 0.0 — matching what ``make_job`` assumes for plain callables.
        """
        return self.predict(graph, device), 0.0

    # -- plumbing -------------------------------------------------------- #
    def _count_request(self, n: int = 1) -> None:
        counter("serve_requests_total").inc(n)
        with self._stat_lock:
            self._requests += n

    def _shed_request(self, graph, device, start: float,
                      rid, tid, reason: str = "queue full") -> Ticket:
        counter("serve_shed_total").inc()
        with self._stat_lock:
            self._shed += 1
        _log.warning("%s; shedding to fallback chain", reason, extra={
            "graph": getattr(graph, "name", "") or "<graph>",
            "depth": self.batcher.max_queue_depth})
        value = self._fallback_answer(graph, device)
        ticket = Ticket()
        ticket.set_result(value)
        elapsed = self._observe_latency(start)
        self._finish(rid, tid, graph, device, elapsed, "shed", "miss",
                     value, tier=self.fallback.last_tier)
        return ticket

    def _deadline_shed(self, ticket: Ticket, graph, device) -> float:
        """Resolve a deadline-expired ticket with the fallback answer.

        Runs on the *caller's* thread after ``ticket.result(timeout)``
        timed out.  If the dispatcher resolved the ticket in the window
        between the timeout and our :meth:`Ticket.set_result`, the
        one-shot contract makes it lose gracefully: ``set_result``
        returns ``False`` and we return the real value instead — the
        late result is never double-delivered, and no request is ever
        answered twice with different numbers.
        """
        value = self._fallback_answer(graph, device)
        if not ticket.set_result(value):
            return ticket.result()
        counter("serve_deadline_shed_total").inc()
        with self._stat_lock:
            self._deadline_sheds += 1
        _log.warning("result deadline expired; shed to fallback chain",
                     extra={"graph": getattr(graph, "name", "")
                            or "<graph>",
                            "tier": self.fallback.last_tier})
        return value

    def _fallback_answer(self, graph, device) -> float:
        """The fallback chain's answer, inside a ``serve.fallback`` span."""
        with span("serve.fallback") as sp:
            mean, _std = self.fallback(graph,
                                       device or self.session.device)
            sp.set_attr(tier=self.fallback.last_tier)
        return float(mean)

    def _dispatch_batch(self, requests) -> list[float]:
        """MicroBatcher dispatch: :meth:`ModelSession.forward`, then finish.

        Each queued item is a :class:`_Request`; runs on the dispatcher
        thread.  A forward failure in any chunk records one flight
        ``error`` entry per request before it fails the flush's tickets.
        """
        try:
            values = self.session.forward(
                [r.key for r in requests], [r.feats for r in requests],
                batch_size=self.batcher.max_batch_size)
        except Exception as exc:
            now = time.monotonic()
            for req in requests:
                self._finish(req.rid, req.tid, req.graph, req.device,
                             now - req.start, "error", "miss", None,
                             batch=len(requests),
                             error=type(exc).__name__)
            raise
        for req, value in zip(requests, values):
            elapsed = self._observe_latency(req.start)
            self._finish(req.rid, req.tid, req.graph, req.device,
                         elapsed, "served", "miss", value,
                         batch=len(requests))
        return values

    def _finish(self, rid, tid, graph, device, latency_s: float,
                outcome: str, cache: str, value, batch: int = 0,
                tier=None, error=None) -> None:
        """Request epilogue: the flight record."""
        if self.flight is not None and rid is not None:
            # Bare tuple append: this runs per request even with the
            # tracer off, inside the 2% overhead budget — the recorder
            # coerces to FlightRecord when read.
            self.flight.record((
                rid, tid,
                getattr(graph, "name", "") or "<graph>",
                self._device_name if device is None
                else getattr(device, "name", "?"),
                outcome, cache, latency_s,
                None if value is None else float(value),
                batch, tier, error))

    def _observe_latency(self, start: float) -> float:
        elapsed = time.monotonic() - start
        self._latency.observe(elapsed)
        histogram("serve_latency_seconds").observe(elapsed)
        return elapsed

    # -- introspection / lifecycle --------------------------------------- #
    def latency_quantiles(self) -> dict[str, float]:
        """p50/p90/p99 over every request served so far (bucket accuracy)."""
        return {"p50": self._latency.quantile(0.50),
                "p90": self._latency.quantile(0.90),
                "p99": self._latency.quantile(0.99)}

    def stats(self) -> dict:
        """Snapshot of the service's counters and queue accounting."""
        with self._stat_lock:
            requests, shed = self._requests, self._shed
            deadline_sheds = self._deadline_sheds
            closed = self._closed
        # the batcher counters are written on the dispatcher thread;
        # MicroBatcher.stats() snapshots them under the batcher's own
        # condition (reading the attributes bare here raced the
        # dispatcher — the C002 lint finding this fixed)
        out = {
            "requests": requests,
            "shed": shed,
            "deadline_shed": deadline_sheds,
            "closed": closed,
            "result_cache_entries": len(self.session.results),
            "latency": self.latency_quantiles(),
            "fallback_tiers": self.fallback.counts(),
            **self.batcher.stats(),
        }
        if self.flight is not None:
            out["flight"] = self.flight.summary()
        return out

    def close(self) -> None:
        """Drain and stop the dispatcher.  Idempotent and non-fatal.

        The first call drains the queue (in-flight ``predict_async``
        tickets resolve normally — the batcher's drain flush serves
        them) and stops the dispatcher thread; repeat calls return
        immediately.  Requests submitted *after* close are not errors:
        they route synchronously through the fallback chain (see
        :meth:`_request`), so a torn-down service degrades instead of
        raising into callers that still hold a reference.
        """
        with self._stat_lock:
            if self._closed:
                return
            self._closed = True
        self.batcher.close()

    def __enter__(self) -> "PredictorService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
