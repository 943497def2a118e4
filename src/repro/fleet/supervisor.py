"""Fleet supervision: health ticks and backoff-scheduled restarts.

The supervisor owns one monitor thread and two callbacks injected by
the fleet service:

* ``health_cb(now)`` — invoked every tick; the service checks each
  worker's heartbeat age against the hung-worker deadline and detaches
  any that went silent.
* ``restart_cb(worker_id)`` — invoked when a scheduled restart comes
  due; the service builds the next incarnation and re-adds it to the
  hash ring.

Restart delays come from :class:`repro.resilience.ExponentialBackoff`
keyed by a per-worker attempt counter — a crash-looping worker backs
off exponentially instead of thrashing spawn/rebuild, and
:meth:`note_healthy` resets the counter once the new incarnation
actually serves a request.

Locking: everything mutable lives under the supervisor's own
condition, and **both callbacks fire with no supervisor locks held**
(due work is popped first, then invoked), so the service is free to
take its own condition inside them without ever nesting the two —
the lock order in docs/fleet.md stays acyclic by construction.
"""

from __future__ import annotations

import threading
import time

from ..lint.sanitizer import new_condition
from ..obs import get_logger
from ..resilience import ExponentialBackoff

__all__ = ["Supervisor"]

_log = get_logger("fleet.supervisor")


class Supervisor:
    """Monitor thread: run health checks, fire due restarts."""

    def __init__(self, *, health_cb, restart_cb,
                 backoff: "ExponentialBackoff | None" = None,
                 tick_s: float = 0.02):
        if tick_s <= 0:
            raise ValueError("tick_s must be positive")
        self._health_cb = health_cb
        self._restart_cb = restart_cb
        self.backoff = backoff if backoff is not None \
            else ExponentialBackoff(base_s=0.01, factor=2.0, cap_s=1.0)
        self.tick_s = float(tick_s)
        self._cond = new_condition("Supervisor._cond")
        #: worker_id -> monotonic due time of its pending restart
        self._due: dict[int, float] = {}
        #: worker_id -> consecutive restart attempts (backoff exponent)
        self._attempts: dict[int, int] = {}
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="repro-fleet-supervisor", daemon=True)
        self._thread.start()

    # -- client side ---------------------------------------------------- #
    def schedule_restart(self, worker_id: int,
                         now: "float | None" = None) -> float:
        """Queue a restart for ``worker_id``; returns the delay used."""
        t = now if now is not None else time.monotonic()
        with self._cond:
            attempt = self._attempts.get(worker_id, 0) + 1
            self._attempts[worker_id] = attempt
            delay = self.backoff.delay(attempt)
            self._due[worker_id] = t + delay
            self._cond.notify_all()
        _log.info("restart scheduled", extra={
            "worker": worker_id, "attempt": attempt,
            "delay_s": round(delay, 4)})
        return delay

    def note_healthy(self, worker_id: int) -> None:
        """Reset the backoff counter: the incarnation is serving."""
        with self._cond:
            self._attempts.pop(worker_id, None)

    def attempts(self, worker_id: int) -> int:
        with self._cond:
            return self._attempts.get(worker_id, 0)

    def close(self, timeout: float = 5.0) -> None:
        """Stop the monitor thread and join it; idempotent."""
        with self._cond:
            self._stopped = True
            self._cond.notify_all()
        self._thread.join(timeout)

    def __enter__(self) -> "Supervisor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- monitor thread -------------------------------------------------- #
    def _run(self) -> None:
        while True:
            with self._cond:
                if self._stopped:
                    return
                self._cond.wait(self.tick_s)
                if self._stopped:
                    return
                now = time.monotonic()
                ready = [wid for wid, due in self._due.items()
                         if due <= now]
                for wid in ready:
                    self._due.pop(wid, None)
            # Callbacks run with no supervisor locks held: the service
            # takes its own condition (and handle locks below it)
            # inside these without ever nesting against ours.  A
            # callback exception must not kill supervision — log it and
            # keep ticking (the restart is consumed either way; the
            # next death reschedules it).
            for wid in ready:
                try:
                    self._restart_cb(wid)
                except Exception as exc:
                    _log.warning("restart callback failed", extra={
                        "worker": wid, "error": type(exc).__name__})
            try:
                self._health_cb(now)
            except Exception as exc:
                _log.warning("health callback failed", extra={
                    "error": type(exc).__name__})
