"""FleetService: the supervised multi-worker prediction router.

Requests enter :meth:`FleetService.predict_async`, are keyed by
:func:`repro.perf.cache.graph_key`, and consistent-hash to their home
worker (:class:`~repro.fleet.hashring.HashRing`) so each worker's
private LRUs stay hot on a disjoint slice of the key space.  Below the
LRUs sits the shared on-disk :class:`~repro.perf.PredictionCache` tier;
below everything, the :class:`~repro.resilience.FallbackPredictor`
chain.  The full resolution ladder for one ticket:

1. home worker (its LRU → shared tier → forward);
2. on worker death/hang: retry-with-rehash to the next ring candidate,
   up to ``max_retries`` re-dispatches;
3. on no candidates / retries exhausted / post-close: shared tier read
   from the parent, then the fallback chain — synchronously, so every
   ticket resolves no matter what the fleet is doing.

Robustness comes from the :class:`~repro.fleet.supervisor.Supervisor`:
per-tick heartbeat checks declare silent workers hung past
``hang_deadline_s``, dead workers leave the ring immediately (orphaned
requests re-dispatch), and restarts come back with
:class:`~repro.resilience.ExponentialBackoff` delays under a fresh
*incarnation* number — late results from a dead incarnation are
detected and discarded (``fleet_stale_results_total``), never served.

Lock order (checked statically by the C003 lint and dynamically by the
lockwatch): ``FleetService._cond`` → ``HashRing._lock`` / handle
``_cond``.  The supervisor's condition is never held across a call
into the service (callbacks fire lock-free), and worker callbacks into
the service hold no handle locks, so the hierarchy is acyclic.
"""

from __future__ import annotations

import time
from dataclasses import replace

from ..gpu import DeviceSpec, get_device
from ..lint.sanitizer import new_condition
from ..obs import get_logger
from ..obs.context import use_context
from ..obs.metrics import Histogram, counter, gauge, histogram
from ..obs.tracing import span
from ..perf.cache import PredictionCache, graph_key
from ..resilience import (FallbackPredictor, FaultConfig,
                          default_fallback_chain)
from ..serve.batcher import Ticket
from .hashring import HashRing
from .supervisor import Supervisor
from .worker import (InProcessWorker, ProcessWorker, WorkerBusyError,
                     WorkerSpec, WorkerUnavailableError,
                     default_model_factory)

__all__ = ["FleetService"]

_log = get_logger("fleet.service")

#: how long close() waits for in-flight tickets before degrading them
_DRAIN_TIMEOUT_S = 10.0


class _Pending:
    """One in-flight request: its ticket plus routing state."""

    __slots__ = ("ticket", "graph", "device", "device_name", "key",
                 "start", "wid", "inc", "attempts")

    def __init__(self, ticket, graph, device, device_name, key, start):
        self.ticket = ticket
        self.graph = graph
        self.device = device
        self.device_name = device_name
        self.key = key
        self.start = start
        #: current assignment; None between dispatches
        self.wid: "int | None" = None
        self.inc = -1
        #: dispatch attempts consumed (re-dispatches after deaths)
        self.attempts = 0


class FleetService:
    """N supervised workers behind a consistent-hash router.

    Parameters
    ----------
    num_workers:
        Fleet size.  Worker ids are ``0..num_workers-1`` and stable
        across restarts (an id keeps its ring position; only its
        incarnation number advances).
    mode:
        ``"thread"`` (default) hosts workers as in-process threads —
        deterministic, cheap, the mode tests and chaos benchmarks use.
        ``"process"`` spawns real child processes over pipes.
    model_factory / model_kwargs:
        Picklable factory (imported by qualified name in spawned
        children) and its kwargs; every worker builds an identical
        model, so any worker's answer for a graph is *the* answer.
    device:
        Default :class:`~repro.gpu.DeviceSpec` (or registry name) for
        requests; per-call overrides are routed by device *name*
        through the device registry.
    shared_cache_dir:
        Directory for the shared :class:`~repro.perf.PredictionCache`
        tier below the per-worker LRUs; ``None`` disables it.
    fallback:
        :class:`~repro.resilience.FallbackPredictor` chain — the
        terminal tier of the resolution ladder.
    fault_config / fault_seed:
        Worker-chaos injection (``worker_kill_prob`` /
        ``worker_hang_prob``), deterministic per
        (worker, incarnation, request index).
    max_retries:
        Re-dispatches a request may consume after worker deaths before
        it degrades to the fallback ladder.
    hang_deadline_s:
        Heartbeat silence past this declares a worker hung.  Workers
        beat between requests, not during a forward pass, so this must
        exceed the worst-case *single-request* service time for the
        workload (chaos tests with small graphs can run it much
        tighter than the conservative default).

    The rest is fixed: 64 virtual ring nodes per worker, a 20 ms
    worker poll/heartbeat and supervisor tick, a 256-request worker
    inbox, restarts backed off from 10 ms doubling to a 1 s cap, and a
    10 s drain on :meth:`close`.
    """

    def __init__(self, *, num_workers: int = 2, mode: str = "thread",
                 model_factory=default_model_factory,
                 model_kwargs: "dict | None" = None,
                 device: "DeviceSpec | str" = "A100",
                 shared_cache_dir: "str | None" = None,
                 fallback: "FallbackPredictor | None" = None,
                 fault_config: "FaultConfig | None" = None,
                 fault_seed: int = 0, max_retries: int = 3,
                 hang_deadline_s: float = 5.0):
        if num_workers < 1:
            raise ValueError("num_workers must be >= 1")
        if mode not in ("thread", "process"):
            raise ValueError(f"unknown fleet mode {mode!r}")
        self.mode = mode
        self.num_workers = int(num_workers)
        self.max_retries = int(max_retries)
        self.hang_deadline_s = float(hang_deadline_s)
        self._device = get_device(device) if isinstance(device, str) \
            else device
        self.fallback = fallback if fallback is not None \
            else default_fallback_chain()
        self._shared = PredictionCache(shared_cache_dir) \
            if shared_cache_dir else None
        self._spec_proto = WorkerSpec(
            worker_id=-1, incarnation=0,
            device_name=self._device.name,
            model_factory=model_factory,
            model_kwargs=dict(model_kwargs or {}),
            shared_cache_dir=shared_cache_dir,
            fault_config=fault_config, fault_seed=fault_seed)

        self._cond = new_condition("FleetService._cond")
        self._ring = HashRing()
        self._handles: dict = {}
        self._incarnations: dict = {}
        self._pending: dict = {}
        self._req_seq = 0
        self._requests = 0
        self._deaths = 0
        self._restarts = 0
        self._retries = 0
        self._stale = 0
        self._served: dict = {}
        self._fallbacks: dict = {}
        self._closed = False
        self._latency = Histogram("fleet_request_latency_seconds")

        # workers first (the supervisor's first health tick must see a
        # fully-populated fleet, and callbacks guard on a None
        # supervisor until it exists)
        self._supervisor: "Supervisor | None" = None
        for wid in range(self.num_workers):
            handle = self._make_handle(wid, 0)
            self._incarnations[wid] = 0
            self._handles[wid] = handle
            self._ring.add(wid)
        self._supervisor = Supervisor(health_cb=self._check_health,
                                      restart_cb=self._restart_worker)

    # -- request paths --------------------------------------------------- #
    def predict(self, graph, device=None,
                timeout: "float | None" = None) -> float:
        """Predict occupancy for one graph, blocking until resolved.

        With ``timeout``, an unresolved ticket at the deadline is shed:
        the parent-side ladder (shared tier, then fallback chain)
        answers synchronously and wins the ticket's one-shot race, so a
        late worker result is discarded rather than double-delivered.
        """
        ticket = self.predict_async(graph, device)
        if timeout is None:
            return ticket.result()
        try:
            return ticket.result(timeout)
        except TimeoutError:
            return self._deadline_shed(ticket, graph, device)

    def predict_async(self, graph, device=None) -> Ticket:
        """Enqueue one request; returns its one-shot :class:`Ticket`."""
        start = time.monotonic()
        counter("fleet_requests_total").inc()
        dev, dev_name = self._resolve_device(device)
        ticket = Ticket()
        entry = _Pending(ticket, graph, dev, dev_name,
                         graph_key(graph, dev), start)
        with self._cond:
            self._requests += 1
            closed = self._closed
            if not closed:
                req_id = self._req_seq
                self._req_seq += 1
                self._pending[req_id] = entry
                gauge("fleet_pending_requests").set(len(self._pending))
        if closed:
            self._resolve_fallback(entry, "closed")
            return ticket
        with span("fleet.dispatch",
                  graph=getattr(graph, "name", "") or "<graph>"):
            self._dispatch(req_id)
        return ticket

    def predict_many(self, graphs, device=None) -> list:
        """Bulk convenience: fan every graph out, gather in order."""
        tickets = [self.predict_async(g, device) for g in graphs]
        return [t.result() for t in tickets]

    #: make_job protocol: call me with (graph, device), not features.
    wants_graph = True

    def __call__(self, graph, device=None) -> tuple[float, float]:
        """Workload-predictor protocol: ``(mean, std)`` with std 0."""
        return self.predict(graph, device), 0.0

    # -- routing ---------------------------------------------------------- #
    def _resolve_device(self, device) -> tuple:
        if device is None:
            return self._device, self._device.name
        if isinstance(device, str):
            dev = get_device(device)
            return dev, dev.name
        return device, getattr(device, "name", None)

    def _dispatch(self, req_id: int) -> None:
        """Place one pending request on a live worker, or degrade.

        Candidates come from the ring in consistent order — the home
        worker first, then the stable failover sequence.  Dead workers
        are not candidates (death removed them from the ring), so a
        re-dispatch after a death *is* the rehash to the next sibling.

        When every worker is momentarily dead (a chaos burst caught the
        whole fleet between death and backoff-restart) the request
        stays *parked* — pending with no assignment — and
        :meth:`_restart_worker` re-dispatches it the instant a worker
        rejoins the ring.  Only bounded conditions degrade immediately:
        all live workers at capacity (``overloaded``) or a closed
        service (``closed``).
        """
        reason = None
        entry = None
        with self._cond:
            entry = self._pending.get(req_id)
            if entry is None:
                return
            if self._closed:
                self._pending.pop(req_id, None)
                self._cond.notify_all()
                reason = "closed"
            else:
                placed = False
                busy = False
                for wid in self._ring.candidates(entry.key):
                    handle = self._handles.get(wid)
                    if handle is None:
                        continue
                    try:
                        handle.submit(req_id, entry.graph,
                                      entry.device_name)
                    except WorkerBusyError:
                        busy = True
                        continue
                    except WorkerUnavailableError:
                        continue
                    entry.wid = wid
                    entry.inc = handle.incarnation
                    placed = True
                    break
                if not placed:
                    if busy:
                        self._pending.pop(req_id, None)
                        self._cond.notify_all()
                        reason = "overloaded"
                    else:
                        # fleet-wide outage: park unassigned until a
                        # restart rejoins the ring
                        entry.wid = None
        if reason is not None:
            self._resolve_fallback(entry, reason)

    # -- worker callbacks (no handle locks held when these fire) ---------- #
    def _on_result(self, worker_id: int, incarnation: int, req_id: int,
                   value: float, tier: str) -> None:
        with self._cond:
            entry = self._pending.get(req_id)
            if entry is None or entry.wid != worker_id \
                    or entry.inc != incarnation:
                self._stale += 1
                entry = None
            else:
                self._pending.pop(req_id)
                self._served[tier] = self._served.get(tier, 0) + 1
                gauge("fleet_pending_requests").set(len(self._pending))
                self._cond.notify_all()
        if entry is None:
            counter("fleet_stale_results_total").inc()
            return
        counter("fleet_served_total", tier=tier).inc()
        if self._shared is not None:
            if tier == "shared":
                counter("fleet_shared_cache_hits_total").inc()
            elif tier == "forward":
                counter("fleet_shared_cache_misses_total").inc()
        self._observe_latency(entry.start)
        sup = self._supervisor
        if sup is not None:
            sup.note_healthy(worker_id)
        with use_context(entry.ticket.ctx), \
                span("fleet.resolve", worker=worker_id, tier=tier):
            entry.ticket.set_result(float(value))

    def _on_death(self, worker_id: int, incarnation: int,
                  kind: str) -> None:
        """Detach a dead worker; reroute its orphans; schedule restart.

        Called from handle reader threads (kill/error/exit), from the
        supervisor's health tick (hang), or redundantly from both — the
        incarnation check makes every call after the first a no-op.
        """
        with self._cond:
            handle = self._handles.get(worker_id)
            if handle is None or handle.incarnation != incarnation:
                return
            self._handles.pop(worker_id)
            self._ring.remove(worker_id)
            self._deaths += 1
            closed = self._closed
            orphans = []
            exhausted = []
            for rid, e in list(self._pending.items()):
                if e.wid != worker_id or e.inc != incarnation:
                    continue
                e.wid = None
                e.attempts += 1
                if e.attempts > self.max_retries:
                    exhausted.append(self._pending.pop(rid))
                else:
                    orphans.append(rid)
            self._retries += len(orphans)
            if exhausted:
                self._cond.notify_all()
        handle.kill()
        counter("fleet_worker_deaths_total", kind=kind).inc()
        _log.warning("worker died; rerouting orphans", extra={
            "worker": worker_id, "incarnation": incarnation,
            "kind": kind, "orphans": len(orphans) + len(exhausted)})
        sup = self._supervisor
        if sup is not None and not closed:
            sup.schedule_restart(worker_id)
        for rid in orphans:
            counter("fleet_retries_total").inc()
            self._dispatch(rid)
        for entry in exhausted:
            self._resolve_fallback(entry, "retries_exhausted")

    # -- supervisor callbacks (no supervisor locks held) ------------------ #
    def _check_health(self, now: float) -> None:
        with self._cond:
            snapshot = list(self._handles.items())
        hung = [(wid, h.incarnation) for wid, h in snapshot
                if h.heartbeat_age(now) > self.hang_deadline_s]
        for wid, inc in hung:
            _log.warning("worker heartbeat stale; declaring hung",
                         extra={"worker": wid,
                                "deadline_s": self.hang_deadline_s})
            self._on_death(wid, inc, "hang")

    def _restart_worker(self, worker_id: int) -> None:
        with self._cond:
            if self._closed or worker_id in self._handles:
                return
            inc = self._incarnations.get(worker_id, 0) + 1
            self._incarnations[worker_id] = inc
            self._restarts += 1
        # the build (for process mode: a spawn) happens outside every
        # lock; close() racing in is resolved by the re-check below
        handle = self._make_handle(worker_id, inc)
        stale = False
        with self._cond:
            if self._closed:
                stale = True
            else:
                self._handles[worker_id] = handle
                self._ring.add(worker_id)
        if stale:
            handle.kill()
            handle.close()
            return
        counter("fleet_worker_restarts_total").inc()
        _log.info("worker restarted", extra={
            "worker": worker_id, "incarnation": inc})
        # drain the parked backlog: requests that found an empty ring
        # during a fleet-wide outage dispatch onto the fresh worker
        with self._cond:
            parked = [rid for rid, e in self._pending.items()
                      if e.wid is None]
        for rid in parked:
            self._dispatch(rid)

    def _make_handle(self, worker_id: int, incarnation: int):
        spec = replace(self._spec_proto, worker_id=worker_id,
                       incarnation=incarnation)
        if self.mode == "process":
            return ProcessWorker(spec, self._on_result, self._on_death)
        return InProcessWorker(spec, self._on_result, self._on_death)

    # -- degradation ------------------------------------------------------ #
    def _degrade(self, graph, device, key: str,
                 reason: str) -> "tuple[float, str]":
        """Terminal ladder: shared tier, then the fallback chain."""
        if self._shared is not None:
            value = self._shared.get(key)
            if value is not None:
                return value, "shared_tier"
        with span("fleet.fallback", reason=reason) as sp:
            mean, _std = self.fallback(graph, device)
            sp.set_attr(tier=self.fallback.last_tier)
        return float(mean), self.fallback.last_tier

    def _resolve_fallback(self, entry: _Pending, reason: str) -> None:
        """Resolve a ticket no worker can serve through :meth:`_degrade`."""
        value, tier = self._degrade(entry.graph, entry.device, entry.key,
                                    reason)
        with self._cond:
            self._fallbacks[reason] = self._fallbacks.get(reason, 0) + 1
        counter("fleet_fallbacks_total", reason=reason).inc()
        _log.warning("request degraded to fallback ladder", extra={
            "reason": reason, "tier": tier,
            "graph": getattr(entry.graph, "name", "") or "<graph>"})
        self._observe_latency(entry.start)
        entry.ticket.set_result(value)

    def _deadline_shed(self, ticket: Ticket, graph, device) -> float:
        """Caller-side deadline expiry: degrade now, discard late wins."""
        with self._cond:
            for rid, e in list(self._pending.items()):
                if e.ticket is ticket:
                    self._pending.pop(rid)
                    self._cond.notify_all()
                    break
        dev, _name = self._resolve_device(device)
        value, _tier = self._degrade(graph, dev, graph_key(graph, dev),
                                     "deadline")
        if not ticket.set_result(value):
            return ticket.result()
        with self._cond:
            self._fallbacks["deadline"] = \
                self._fallbacks.get("deadline", 0) + 1
        counter("fleet_fallbacks_total", reason="deadline").inc()
        return value

    def _observe_latency(self, start: float) -> float:
        elapsed = time.monotonic() - start
        self._latency.observe(elapsed)
        histogram("fleet_request_latency_seconds").observe(elapsed)
        return elapsed

    # -- introspection / lifecycle ---------------------------------------- #
    def latency_quantiles(self) -> dict:
        return {"p50": self._latency.quantile(0.50),
                "p90": self._latency.quantile(0.90),
                "p99": self._latency.quantile(0.99)}

    def stats(self) -> dict:
        """Snapshot of fleet counters and per-worker status."""
        with self._cond:
            workers = {
                wid: {"incarnation": h.incarnation, "alive": h.alive()}
                for wid, h in sorted(self._handles.items())}
            out = {
                "mode": self.mode,
                "requests": self._requests,
                "pending": len(self._pending),
                "served": dict(self._served),
                "fallbacks": dict(self._fallbacks),
                "deaths": self._deaths,
                "restarts": self._restarts,
                "retries": self._retries,
                "stale_results": self._stale,
                "closed": self._closed,
                "ring_members": self._ring.members(),
                "workers": workers,
            }
        out["latency"] = self.latency_quantiles()
        out["fallback_tiers"] = self.fallback.counts()
        return out

    def close(self) -> None:
        """Graceful drain, then stop everything.  Idempotent.

        Stops accepting (post-close requests degrade synchronously),
        waits up to 10 s (``_DRAIN_TIMEOUT_S``) for in-flight tickets to
        resolve — worker deaths during the drain still reroute, so a
        chaos-ridden drain converges — then stops the supervisor and
        workers.  Whatever is *still* unresolved past the deadline is
        degraded through the fallback ladder: close never strands a
        ticket.
        """
        with self._cond:
            if self._closed:
                return
            self._closed = True
            deadline = time.monotonic() + _DRAIN_TIMEOUT_S
            while self._pending and time.monotonic() < deadline:
                self._cond.wait(0.05)
            leftovers = list(self._pending.values())
            self._pending.clear()
            handles = list(self._handles.values())
            self._handles.clear()
            for wid in self._ring.members():
                self._ring.remove(wid)
        sup = self._supervisor
        if sup is not None:
            sup.close()
        for handle in handles:
            handle.kill()
        for handle in handles:
            handle.close()
        for entry in leftovers:
            self._resolve_fallback(entry, "closed")

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
