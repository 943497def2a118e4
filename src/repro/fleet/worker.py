"""Fleet workers: a warm model session behind a submit/callback surface.

One worker = one :class:`~repro.serve.ModelSession` (private result
LRU) stacked on the shared on-disk
:class:`~repro.perf.PredictionCache` tier.  :class:`WorkerCore` is the
mode-agnostic serving logic: the session's cache ladder (LRU, then
shared tier, then forward), the deterministic per-request fault draw
(:meth:`repro.resilience.FaultInjector.worker_fault`), and
:meth:`WorkerCore.serve`, the one serve step both hosts run on every
drained batch.

Two hosts wrap the core behind one handle interface
(``submit`` / ``heartbeat_age`` / ``alive`` / ``kill`` / ``close`` and
the ``on_result`` / ``on_death`` callbacks).  They share identity,
liveness and the bounded inbox ``submit`` appends to, and differ only
in where requests wait and how a fault ends the worker:

* :class:`InProcessWorker` — a thread in this process drains the
  inbox.  Deterministic and cheap; the default for tests and the chaos
  benchmarks.  A ``kill`` fault marks the worker dead and fires
  ``on_death``; a ``hang`` fault stops heartbeating until the
  supervisor kills it.
* :class:`ProcessWorker` — a real **spawned** child process over a
  duplex pipe.  Spawn, not fork: the parent runs supervisor/reader
  threads and holds obs/logging locks, and forking a locked thread is
  a deadlock factory — the child instead rebuilds the model from the
  picklable :class:`WorkerSpec` (same seed → bit-identical weights).
  A ``kill`` fault is a hard ``os._exit``; a ``hang`` fault goes
  silent until terminated.  Parent-side sender/reader threads keep
  ``submit`` non-blocking (a hung child can never wedge a client
  holding service locks) and turn pipe EOF into ``on_death``.

Callbacks are always invoked with **no handle locks held**, so the
service may take its own condition inside them (lock order:
``FleetService._cond`` → handle ``_cond``; see docs/fleet.md).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import threading
import time
from dataclasses import dataclass, field

from ..core import DNNOccu, DNNOccuConfig
from ..gpu import get_device
from ..lint.sanitizer import new_condition
from ..obs import get_logger
from ..perf.cache import PredictionCache
from ..resilience import FaultConfig, FaultInjector
from ..serve.service import ModelSession

__all__ = ["WorkerSpec", "WorkerCore", "InProcessWorker", "ProcessWorker",
           "WorkerBusyError", "WorkerUnavailableError",
           "default_model_factory"]

_log = get_logger("fleet.worker")

#: idle-poll period of every worker loop, and so the heartbeat period:
#: an idle worker beats once per poll; submits and closes notify at once
_POLL_S = 0.02

#: submit raises WorkerBusyError beyond this many queued requests
_MAX_INFLIGHT = 256

#: drain cap: queued requests served per wake as one batched forward
_MAX_BATCH = 8

#: heartbeat grace before a child's first beat (spawn + import + build)
_SPAWN_GRACE_S = 30.0

#: how long a hung child blocks before it exits on its own
_HANG_BLOCK_S = 60.0

#: child exit code for an injected kill fault (diagnosable in waitpid)
_KILL_EXIT = 87


class WorkerBusyError(RuntimeError):
    """The worker's inbox is at capacity; try a sibling."""


class WorkerUnavailableError(RuntimeError):
    """The worker is dead or stopped; rehash to a sibling."""


def default_model_factory(hidden: int = 32, num_heads: int = 4,
                          seed: int = 7) -> DNNOccu:
    """Build the stock DNN-occu predictor (picklable by reference).

    Spawned workers import this function by qualified name and rebuild
    the model in-process; the seed makes every incarnation's weights
    bit-identical, so a restarted worker predicts exactly what its
    predecessor did.
    """
    return DNNOccu(DNNOccuConfig(hidden=hidden, num_heads=num_heads),
                   seed=seed)


@dataclass
class WorkerSpec:
    """Everything needed to (re)build one worker, picklable for spawn.

    How a worker is served is fixed by module constants: a 20 ms
    poll/heartbeat period, a 256-request inbox, a drain cap of 8
    requests per batched forward, a 30 s spawn grace before a child's
    first heartbeat and a 60 s block for a hung child.
    """

    worker_id: int
    incarnation: int = 0
    device_name: str = "A100"
    model_factory: "object" = default_model_factory
    model_kwargs: dict = field(default_factory=dict)
    #: shared on-disk prediction tier; None disables it
    shared_cache_dir: "str | None" = None
    #: fault injection; None or all-zero probabilities = no chaos
    fault_config: "FaultConfig | None" = None
    fault_seed: int = 0


class WorkerCore:
    """Mode-agnostic request handling: LRU → shared tier → forward.

    Single-threaded by construction — exactly one worker thread (or the
    child process main loop) ever touches a core.
    """

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        model = spec.model_factory(**spec.model_kwargs)
        self.session = ModelSession(model, get_device(spec.device_name))
        self.shared = PredictionCache(spec.shared_cache_dir) \
            if spec.shared_cache_dir else None
        cfg = spec.fault_config
        self.injector = FaultInjector(cfg, seed=spec.fault_seed) \
            if cfg is not None and (cfg.worker_kill_prob > 0
                                    or cfg.worker_hang_prob > 0) else None
        self._handled = 0

    def next_fault(self) -> "str | None":
        """Draw this request's fault verdict; advances the request index.

        Deterministic in ``(fault_seed, worker_id, incarnation,
        request_index)`` — thread and process mode draw identical
        verdicts for identical arrival orders.
        """
        # conc: lockfree-ok -- a WorkerCore is owned by exactly one
        # host thread (the InProcessWorker run loop or the child
        # process main loop); no second thread ever touches it
        idx = self._handled
        self._handled += 1
        if self.injector is None:
            return None
        return self.injector.worker_fault(self.spec.worker_id,
                                          self.spec.incarnation, idx)

    def handle_many(self, requests) -> "list[tuple[float, str]]":
        """Serve a drained micro-batch of ``(graph, device_name)`` pairs.

        Runs :meth:`~repro.serve.ModelSession.resolve` with the shared
        tier: cache tiers resolve per request and the residual misses
        run as one eager forward per size bucket — a single miss is
        the batch of one :meth:`~repro.core.DNNOccu.predict` runs, so
        bit-identical to it.  Returns one ``(prediction, tier)`` pair
        per request, in request order; ``tier`` is ``"lru"``,
        ``"shared"`` or ``"forward"``.
        """
        return self.session.resolve(
            [(graph, get_device(name) if name else None)
             for graph, name in requests],
            shared=self.shared, batch_size=_MAX_BATCH)

    def serve(self, drained, emit) -> "str | None":
        """Serve one drained batch of ``(req_id, graph, device_name)``.

        Draws each request's fault verdict in arrival order and stops
        at the first fault.  The clean prefix is served as one
        :meth:`handle_many` batch, each answer passed to
        ``emit(req_id, value, tier)``; the faulted request and
        everything drained behind it die with the worker, and the
        service reroutes them on the death.  Returns the fault
        (``"kill"`` or ``"hang"``) or None.  A serving error propagates:
        the host dies of it.
        """
        clean: "list[tuple]" = []
        fault = None
        for item in drained:
            fault = self.next_fault()
            if fault is not None:
                break
            clean.append(item)
        if clean:
            outs = self.handle_many(
                [(graph, device_name) for _, graph, device_name in clean])
            for (req_id, _, _), (value, tier) in zip(clean, outs):
                emit(req_id, value, tier)
        return fault


class _WorkerHost:
    """The surface both hosts share: identity, liveness, the inbox.

    ``submit`` only appends to the bounded inbox under the handle lock,
    so a client holding service locks never waits on a worker.
    """

    def __init__(self, spec: WorkerSpec, on_result, on_death):
        self._spec = spec
        self._on_result = on_result
        self._on_death = on_death
        self._cond = new_condition(f"{type(self).__name__}._cond")
        self._inbox: "list[tuple]" = []
        self._stopped = False
        self._dead = False
        self._beat = time.monotonic()

    @property
    def worker_id(self) -> int:
        return self._spec.worker_id

    @property
    def incarnation(self) -> int:
        return self._spec.incarnation

    def submit(self, req_id: int, graph,
               device_name: "str | None") -> None:
        with self._cond:
            if self._dead or self._stopped:
                raise WorkerUnavailableError(
                    f"worker {self._spec.worker_id} is not accepting")
            if len(self._inbox) >= _MAX_INFLIGHT:
                raise WorkerBusyError(
                    f"worker {self._spec.worker_id} inbox full")
            self._inbox.append((req_id, graph, device_name))
            self._cond.notify_all()

    def heartbeat_age(self, now: "float | None" = None) -> float:
        """Seconds since the last heartbeat; negative in a spawn grace."""
        with self._cond:
            return (now if now is not None else time.monotonic()) \
                - self._beat

    def alive(self) -> bool:
        with self._cond:
            return not self._dead and not self._stopped

    def kill(self) -> None:
        """Force-stop without firing ``on_death`` (the caller knows)."""
        self._halt()

    def _halt(self) -> bool:
        """Mark dead and drop the inbox; False if already stopped."""
        with self._cond:
            running = not (self._dead or self._stopped)
            self._dead = True
            self._stopped = True
            self._inbox.clear()
            self._cond.notify_all()
        return running

    def _stop(self) -> None:
        with self._cond:
            self._stopped = True
            self._cond.notify_all()

    def _emit(self, req_id: int, value: float, tier: str) -> None:
        self._on_result(self._spec.worker_id, self._spec.incarnation,
                        req_id, value, tier)

    def _die(self, kind: str) -> None:
        """Drop everything and report the death once.

        Silent when :meth:`kill` or ``close`` got there first: the
        parent already knows.
        """
        if self._halt():
            self._on_death(self._spec.worker_id, self._spec.incarnation,
                           kind)


class InProcessWorker(_WorkerHost):
    """One worker thread in this process — the deterministic mode.

    The model is built eagerly in the constructor (no spawn latency),
    requests wait in the inbox, and the worker thread simulates the
    fault behaviors a child process exhibits: a kill verdict drops the
    inbox and fires ``on_death``; a hang verdict stops heartbeats until
    :meth:`kill`.
    """

    def __init__(self, spec: WorkerSpec, on_result, on_death):
        self._core = WorkerCore(spec)
        super().__init__(spec, on_result, on_death)
        self._thread = threading.Thread(
            target=self._run, name=f"repro-fleet-w{spec.worker_id}",
            daemon=True)
        self._thread.start()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker thread and join it; idempotent."""
        self._stop()
        self._thread.join(timeout)

    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._inbox and not self._stopped:
                    self._cond.wait(_POLL_S)
                    self._beat = time.monotonic()
                if self._stopped:
                    return
                drained = self._inbox[:_MAX_BATCH]
                del self._inbox[:len(drained)]
                self._beat = time.monotonic()
            try:
                fault = self._core.serve(drained, self._emit)
            except Exception as exc:
                _log.warning("worker request failed; dying", extra={
                    "worker": self._spec.worker_id,
                    "error": type(exc).__name__})
                fault = "error"
            if fault == "hang":
                self._hang()
                return
            if fault is not None:
                self._die(fault)
                return
            with self._cond:
                self._beat = time.monotonic()

    def _hang(self) -> None:
        """Simulated hang: no beats, no progress, until killed."""
        with self._cond:
            while not self._stopped:
                self._cond.wait(_POLL_S)


def _process_worker_main(spec: WorkerSpec, conn) -> None:
    """Child-process entry point: serve requests off the pipe.

    The parent sends ``(req_id, graph, device_name)`` requests and
    ``None`` to close.  Heartbeats ride the idle ``poll`` timeout — a
    responsive child beats at least every ``_POLL_S``.  A kill fault
    announces its kind (so the parent labels the death correctly) then
    hard-exits; a hang fault just goes silent, exactly the failure the
    heartbeat deadline exists to catch.
    """
    core = WorkerCore(spec)

    def emit(req_id, value, tier):
        conn.send(("ok", req_id, value, tier))

    try:
        conn.send(("hb",))
        while True:
            if not conn.poll(_POLL_S):
                conn.send(("hb",))
                continue
            msg = conn.recv()
            if msg is None:
                return
            # Drain whatever else is already on the pipe (up to the
            # drain cap) so queued-up requests share one batched forward.
            batch = [msg]
            closing = False
            while len(batch) < _MAX_BATCH and conn.poll(0):
                msg = conn.recv()
                if msg is None:
                    closing = True
                    break
                batch.append(msg)
            try:
                fault = core.serve(batch, emit)
            except Exception:
                # A serving bug or a lost pipe: die; the parent sees EOF
                # and reroutes, the supervisor restarts with backoff.
                os._exit(1)
            if fault == "kill":
                try:
                    conn.send(("fault", "kill"))
                except OSError:
                    pass
                os._exit(_KILL_EXIT)
            if fault == "hang":
                # Block without beating until the parent terminates us
                # (or the block ends and we exit on our own).
                threading.Event().wait(_HANG_BLOCK_S)
                return
            if closing:
                return
    except (EOFError, OSError):
        return


class ProcessWorker(_WorkerHost):
    """One spawned child process behind parent-side pump threads.

    The **sender** thread moves the inbox onto the pipe — it does the
    potentially blocking pipe write, so a hung child (full pipe) can
    never block a client thread that is holding service locks.  The
    **reader** thread turns child messages into callbacks and pipe EOF
    into a single ``on_death``.
    """

    def __init__(self, spec: WorkerSpec, on_result, on_death):
        super().__init__(spec, on_result, on_death)
        # No beat is due before the spawn grace has passed (interpreter
        # start + imports + model build): a cold start is not a hang.
        self._beat += _SPAWN_GRACE_S
        ctx = mp.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_process_worker_main, args=(spec, child_conn),
            name=f"repro-fleet-w{spec.worker_id}", daemon=True)
        self._proc.start()
        child_conn.close()
        self._sender = threading.Thread(
            target=self._send_loop,
            name=f"repro-fleet-w{spec.worker_id}-send", daemon=True)
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-fleet-w{spec.worker_id}-read", daemon=True)
        self._sender.start()
        self._reader.start()

    def kill(self) -> None:
        """Terminate and reap the child without firing ``on_death``."""
        super().kill()
        try:
            self._proc.terminate()
            self._proc.join(5.0)
        except (OSError, ValueError):
            pass

    def close(self, timeout: float = 5.0) -> None:
        """Graceful stop: close message, join pumps and the child."""
        self._stop()
        self._sender.join(timeout)
        self._reader.join(timeout)
        self._proc.join(timeout)
        if self._proc.is_alive():
            try:
                self._proc.terminate()
            except (OSError, ValueError):
                pass
            self._proc.join(timeout)

    def _send_loop(self) -> None:
        while True:
            with self._cond:
                while not self._inbox and not self._stopped:
                    self._cond.wait(_POLL_S)
                if self._dead:
                    return
                # stopped with an empty inbox: send the close message
                msg = self._inbox.pop(0) if self._inbox else None
            try:
                self._conn.send(msg)
            except (OSError, ValueError):
                return
            if msg is None:
                return

    def _read_loop(self) -> None:
        kind = "exit"
        while True:
            try:
                if not self._conn.poll(_POLL_S):
                    with self._cond:
                        if self._stopped:
                            return
                    continue
                msg = self._conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "fault":
                kind = msg[1]
                continue
            with self._cond:
                self._beat = time.monotonic()
            if msg[0] == "ok":
                self._emit(*msg[1:])
        # EOF: the child is gone
        self._die(kind)
