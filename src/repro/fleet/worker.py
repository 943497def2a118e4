"""Fleet workers: a warm model session behind a submit/callback surface.

One worker = one :class:`~repro.serve.ModelSession` (private result +
encoding LRUs) stacked on the shared on-disk
:class:`~repro.perf.PredictionCache` tier.  :class:`WorkerCore` is the
mode-agnostic serving logic — the session's cache ladder (LRU, then
shared tier, then forward) — plus the deterministic per-request fault draw
(:meth:`repro.resilience.FaultInjector.worker_fault`).

Two hosts wrap the core behind one handle interface
(``submit`` / ``heartbeat_age`` / ``alive`` / ``kill`` / ``close`` and
the ``on_result`` / ``on_death`` callbacks):

* :class:`InProcessWorker` — a thread in this process.  Deterministic
  and cheap; the default for tests and the chaos benchmarks.  A
  ``kill`` fault marks the worker dead and fires ``on_death``; a
  ``hang`` fault stops heartbeating until the supervisor kills it.
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

#: idle-poll period for worker loops; submits/close notify immediately
_POLL_S = 0.02

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
    """Everything needed to (re)build one worker, picklable for spawn."""

    worker_id: int
    incarnation: int = 0
    device_name: str = "A100"
    model_factory: "object" = default_model_factory
    model_kwargs: dict = field(default_factory=dict)
    cache_size: int = 1024
    #: shared on-disk prediction tier; None disables it
    shared_cache_dir: "str | None" = None
    #: fault injection; None or all-zero probabilities = no chaos
    fault_config: "FaultConfig | None" = None
    fault_seed: int = 0
    #: child heartbeat period (process mode) / idle-beat period
    hb_interval_s: float = 0.02
    #: how long a hung child blocks before giving up and exiting
    hang_block_s: float = 60.0
    #: submit raises WorkerBusyError beyond this many queued requests
    max_inflight: int = 256
    #: heartbeat grace before the first beat (spawn + import + build)
    spawn_grace_s: float = 30.0
    #: drain cap: queued requests served per wake as one batched forward
    max_batch: int = 8


class WorkerCore:
    """Mode-agnostic request handling: LRU → shared tier → forward.

    Single-threaded by construction — exactly one worker thread (or the
    child process main loop) ever touches a core.
    """

    def __init__(self, spec: WorkerSpec):
        self.spec = spec
        model = spec.model_factory(**spec.model_kwargs)
        device = get_device(spec.device_name)
        self.session = ModelSession(model, device,
                                    cache_size=spec.cache_size)
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

    def handle(self, graph, device_name: "str | None" = None) \
            -> tuple[float, str]:
        """Serve one graph; returns ``(prediction, tier)``.

        ``tier`` is where the answer came from: ``"lru"`` (private
        result cache), ``"shared"`` (on-disk tier, promoted into the
        LRU), or ``"forward"`` (computed here and published to both).
        """
        return self.handle_many([(graph, device_name)])[0]

    def handle_many(self, requests) -> "list[tuple[float, str]]":
        """Serve a drained micro-batch of ``(graph, device_name)`` pairs.

        Runs :meth:`~repro.serve.ModelSession.resolve` with the shared
        tier: cache tiers resolve per request and the residual misses
        run as one eager forward per size bucket — a single miss is
        the batch of one :meth:`~repro.core.DNNOccu.predict` runs, so
        bit-identical to it.  Returns one ``(prediction, tier)`` pair
        per request, in request order.
        """
        return self.session.resolve(
            [(graph, get_device(name) if name else None)
             for graph, name in requests],
            shared=self.shared, batch_size=self.spec.max_batch)


class InProcessWorker:
    """One worker thread in this process — the deterministic mode.

    The model is built eagerly in the constructor (no spawn latency),
    requests queue through a bounded deque, and the worker thread
    simulates the same fault behaviors a child process exhibits: a kill
    verdict drops the queue and fires ``on_death``; a hang verdict
    stops heartbeats until :meth:`kill`.
    """

    def __init__(self, spec: WorkerSpec, on_result, on_death):
        self._spec = spec
        self._on_result = on_result
        self._on_death = on_death
        self._core = WorkerCore(spec)
        self._cond = new_condition("InProcessWorker._cond")
        self._queue: "list[tuple]" = []
        self._stopped = False
        self._dead = False
        self._beat = time.monotonic()
        self._hang_wake = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name=f"repro-fleet-w{spec.worker_id}",
            daemon=True)
        self._thread.start()

    @property
    def worker_id(self) -> int:
        return self._spec.worker_id

    @property
    def incarnation(self) -> int:
        return self._spec.incarnation

    # -- client side ---------------------------------------------------- #
    def submit(self, req_id: int, graph,
               device_name: "str | None") -> None:
        with self._cond:
            if self._dead or self._stopped:
                raise WorkerUnavailableError(
                    f"worker {self._spec.worker_id} is not accepting")
            if len(self._queue) >= self._spec.max_inflight:
                raise WorkerBusyError(
                    f"worker {self._spec.worker_id} inbox full")
            self._queue.append((req_id, graph, device_name))
            self._cond.notify_all()

    def heartbeat_age(self, now: "float | None" = None) -> float:
        with self._cond:
            return (now if now is not None else time.monotonic()) \
                - self._beat

    def alive(self) -> bool:
        with self._cond:
            return not self._dead and not self._stopped

    def kill(self) -> None:
        """Force-stop without firing ``on_death`` (the caller knows)."""
        with self._cond:
            self._dead = True
            self._stopped = True
            self._queue.clear()
            self._cond.notify_all()
        self._hang_wake.set()

    def close(self, timeout: float = 5.0) -> None:
        """Stop the worker thread and join it; idempotent."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._hang_wake.set()
        self._thread.join(timeout)

    # -- worker thread --------------------------------------------------- #
    def _run(self) -> None:
        while True:
            with self._cond:
                while not self._queue and not self._stopped:
                    self._cond.wait(_POLL_S)
                    self._beat = time.monotonic()
                if self._stopped:
                    return
                drained = self._queue[:self._spec.max_batch]
                del self._queue[:len(drained)]
                self._beat = time.monotonic()
            # Draw each drained request's fault verdict in arrival order,
            # stopping at the first fault: the clean prefix is served as
            # one batch, the faulted request and everything drained
            # behind it die with the worker — the same orphan-then-retry
            # outcome as the serial loop, where _die clears the queue.
            serve: "list[tuple]" = []
            fault = None
            for item in drained:
                verdict = self._core.next_fault()
                if verdict is not None:
                    fault = verdict
                    break
                serve.append(item)
            if serve:
                try:
                    outs = self._core.handle_many(
                        [(graph, device_name)
                         for _, graph, device_name in serve])
                except Exception as exc:
                    _log.warning("worker request failed; dying", extra={
                        "worker": self._spec.worker_id,
                        "error": type(exc).__name__})
                    self._die("error")
                    return
                for (req_id, _, _), (value, tier) in zip(serve, outs):
                    self._on_result(self._spec.worker_id,
                                    self._spec.incarnation,
                                    req_id, value, tier)
            if fault == "kill":
                self._die("kill")
                return
            if fault == "hang":
                self._hang()
                return
            with self._cond:
                self._beat = time.monotonic()

    def _die(self, kind: str) -> None:
        """Simulated crash: drop everything, report once, exit."""
        with self._cond:
            already = self._dead
            self._dead = True
            self._stopped = True
            self._queue.clear()
            self._cond.notify_all()
        if not already:
            self._on_death(self._spec.worker_id, self._spec.incarnation,
                           kind)

    def _hang(self) -> None:
        """Simulated hang: no beats, no progress, until killed."""
        while True:
            self._hang_wake.wait(_POLL_S)
            with self._cond:
                if self._dead or self._stopped:
                    self._queue.clear()
                    return


def _process_worker_main(spec: WorkerSpec, conn) -> None:
    """Child-process entry point: serve requests off the pipe.

    Heartbeats ride the idle ``poll`` timeout — a responsive child
    beats at least every ``hb_interval_s``.  A kill fault announces its
    kind (so the parent labels the death correctly) then hard-exits; a
    hang fault just goes silent, exactly the failure the heartbeat
    deadline exists to catch.
    """
    core = WorkerCore(spec)
    try:
        conn.send(("hb",))
    except OSError:
        return
    while True:
        try:
            if not conn.poll(spec.hb_interval_s):
                conn.send(("hb",))
                continue
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "close":
            return
        # Drain whatever else is already on the pipe (up to the batch
        # cap) so queued-up requests share one batched forward.
        batch = [msg]
        closing = False
        try:
            while len(batch) < spec.max_batch and conn.poll(0):
                nxt = conn.recv()
                if nxt[0] == "close":
                    closing = True
                    break
                batch.append(nxt)
        except (EOFError, OSError):
            return
        # Same arrival-order fault draw as the thread mode: the clean
        # prefix is served, the faulted request and the drained suffix
        # die with the worker (the parent reroutes them on death).
        serve: "list[tuple]" = []
        fault = None
        for _, req_id, graph, device_name in batch:
            verdict = core.next_fault()
            if verdict is not None:
                fault = verdict
                break
            serve.append((req_id, graph, device_name))
        if serve:
            try:
                outs = core.handle_many(
                    [(graph, device_name)
                     for _, graph, device_name in serve])
            except Exception:
                # A real serving bug: die loudly; the parent sees EOF
                # and reroutes, the supervisor restarts with backoff.
                os._exit(1)
            for (req_id, _, _), (value, tier) in zip(serve, outs):
                try:
                    conn.send(("ok", req_id, value, tier))
                except (EOFError, OSError):
                    return
        if fault == "kill":
            try:
                conn.send(("fault", "kill"))
            except OSError:
                pass
            os._exit(_KILL_EXIT)
        if fault == "hang":
            # Block without beating until the parent terminates us (or
            # the grace expires and we exit on our own).
            threading.Event().wait(spec.hang_block_s)
            return
        if closing:
            return


class ProcessWorker:
    """One spawned child process behind parent-side pump threads.

    ``submit`` only appends to a bounded outbox under the handle lock —
    the **sender** thread does the potentially blocking pipe write, so
    a hung child (full pipe) can never block a client thread that is
    holding service locks.  The **reader** thread turns child messages
    into callbacks and pipe EOF into a single ``on_death``.
    """

    def __init__(self, spec: WorkerSpec, on_result, on_death):
        self._spec = spec
        self._on_result = on_result
        self._on_death = on_death
        ctx = mp.get_context("spawn")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_process_worker_main, args=(spec, child_conn),
            name=f"repro-fleet-w{spec.worker_id}", daemon=True)
        self._proc.start()
        child_conn.close()
        self._cond = new_condition("ProcessWorker._cond")
        self._outbox: "list[tuple]" = []
        self._stopped = False
        self._dead = False
        #: None until the child's first heartbeat lands (spawn grace)
        self._beat: "float | None" = None
        self._started_at = time.monotonic()
        self._death_kind: "str | None" = None
        self._sender = threading.Thread(
            target=self._send_loop,
            name=f"repro-fleet-w{spec.worker_id}-send", daemon=True)
        self._reader = threading.Thread(
            target=self._read_loop,
            name=f"repro-fleet-w{spec.worker_id}-read", daemon=True)
        self._sender.start()
        self._reader.start()

    @property
    def worker_id(self) -> int:
        return self._spec.worker_id

    @property
    def incarnation(self) -> int:
        return self._spec.incarnation

    # -- client side ---------------------------------------------------- #
    def submit(self, req_id: int, graph,
               device_name: "str | None") -> None:
        with self._cond:
            if self._dead or self._stopped:
                raise WorkerUnavailableError(
                    f"worker {self._spec.worker_id} is not accepting")
            if len(self._outbox) >= self._spec.max_inflight:
                raise WorkerBusyError(
                    f"worker {self._spec.worker_id} outbox full")
            self._outbox.append(("req", req_id, graph, device_name))
            self._cond.notify_all()

    def heartbeat_age(self, now: "float | None" = None) -> float:
        """Seconds since the last child heartbeat.

        Before the first beat the child is still spawning (interpreter
        start + imports + model build); age only starts counting past
        ``spawn_grace_s`` so a cold start is not mistaken for a hang.
        """
        t = now if now is not None else time.monotonic()
        with self._cond:
            if self._beat is not None:
                return t - self._beat
            return t - self._started_at - self._spec.spawn_grace_s

    def alive(self) -> bool:
        with self._cond:
            return not self._dead and not self._stopped

    def kill(self) -> None:
        """Terminate the child without firing ``on_death``."""
        with self._cond:
            self._dead = True
            self._stopped = True
            self._cond.notify_all()
        try:
            self._proc.terminate()
        except (OSError, ValueError):
            pass

    def close(self, timeout: float = 5.0) -> None:
        """Graceful stop: close message, join pumps and the child."""
        with self._cond:
            if not self._dead:
                self._outbox.append(("close",))
            self._stopped = True
            self._cond.notify_all()
        self._sender.join(timeout)
        self._reader.join(timeout)
        self._proc.join(timeout)
        if self._proc.is_alive():
            try:
                self._proc.terminate()
            except (OSError, ValueError):
                pass
            self._proc.join(timeout)

    # -- pump threads ----------------------------------------------------- #
    def _send_loop(self) -> None:
        while True:
            with self._cond:
                while not self._outbox and not self._stopped \
                        and not self._dead:
                    self._cond.wait(_POLL_S)
                if self._dead or (self._stopped and not self._outbox):
                    return
                msg = self._outbox.pop(0)
            try:
                self._conn.send(msg)
            except (OSError, ValueError, BrokenPipeError):
                return

    def _read_loop(self) -> None:
        while True:
            try:
                if not self._conn.poll(_POLL_S):
                    with self._cond:
                        if self._stopped or self._dead:
                            return
                    continue
                msg = self._conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "hb":
                with self._cond:
                    self._beat = time.monotonic()
            elif kind == "fault":
                with self._cond:
                    self._death_kind = msg[1]
            elif kind == "ok":
                with self._cond:
                    self._beat = time.monotonic()
                self._on_result(self._spec.worker_id,
                                self._spec.incarnation,
                                msg[1], msg[2], msg[3])
        # EOF: the child is gone.  Report it unless the parent already
        # knows (kill() marked dead, or close() is tearing down).
        with self._cond:
            already = self._dead or self._stopped
            self._dead = True
            kind = self._death_kind or "exit"
            self._cond.notify_all()
        if not already:
            self._on_death(self._spec.worker_id, self._spec.incarnation,
                           kind)
