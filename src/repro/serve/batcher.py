"""Adaptive micro-batching queue for the prediction service.

Concurrent single-graph requests land in one bounded FIFO; a dedicated
dispatcher thread coalesces them into batches and flushes on whichever
comes first:

* **full flush** — the queue holds ``max_batch_size`` requests;
* **deadline flush** — the *oldest* queued request has waited
  ``deadline_s`` (default 2 ms), bounding the latency a lone request pays
  for the chance of being batched.

The queue is bounded: :meth:`MicroBatcher.submit` raises
:class:`QueueFullError` at ``max_queue_depth`` instead of growing an
unbounded backlog, which is what lets the service layer shed overload
into the resilience fallback chain with bounded latency.

Synchronization is a single :class:`threading.Condition`; the dispatcher
sleeps in :meth:`Condition.wait` with a timeout (never a raw
``time.sleep`` — the S004 lint pass forbids those outside the backoff
module) so a submit can wake it immediately.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Sequence

from ..lint.sanitizer import new_condition, new_lock
from ..obs.context import capture_context, use_context
from ..obs.metrics import counter, gauge, histogram
from ..obs.tracing import span

__all__ = ["MicroBatcher", "Ticket", "QueueFullError"]

#: idle-poll period while the queue is empty or paused; submits and
#: close() notify the condition, so this only bounds shutdown latency.
_IDLE_WAIT_S = 0.05


class QueueFullError(RuntimeError):
    """The batcher's bounded queue is at ``max_queue_depth``."""


class Ticket:
    """One submitted request's future result — resolved exactly once.

    ``result()`` blocks the submitting thread until the dispatcher
    resolves the ticket (or re-raises the dispatch exception).  The
    first :meth:`set_result` / :meth:`set_exception` wins; later
    resolutions are discarded and report ``False``.  That one-shot
    contract is what makes deadline shedding safe: a caller whose
    ``result(timeout=...)`` expired can resolve the ticket with a
    fallback value, and the dispatcher's late result (or a fleet
    worker's, after a failover retry) is dropped instead of silently
    replacing the value the caller already acted on.

    Creation captures the submitting thread's span context (``ctx``) —
    the request/trace ids plus the id of the span open at the handoff —
    so the dispatcher thread can re-attach it when resolving and its
    spans parent into the request's tree instead of starting a
    disconnected root.  ``None`` outside a request scope.
    """

    __slots__ = ("_event", "_value", "_exc", "_lock", "enqueued_at",
                 "ctx")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._value = None
        self._exc: BaseException | None = None
        self._lock = new_lock("Ticket._lock")
        self.enqueued_at = time.monotonic()
        self.ctx = capture_context()

    def done(self) -> bool:
        return self._event.is_set()

    def set_result(self, value) -> bool:
        """Resolve with ``value``; ``False`` if already resolved."""
        with self._lock:
            if self._event.is_set():
                return False
            self._value = value
            self._event.set()
            return True

    def set_exception(self, exc: BaseException) -> bool:
        """Fail with ``exc``; ``False`` if already resolved."""
        with self._lock:
            if self._event.is_set():
                return False
            self._exc = exc
            self._event.set()
            return True

    def result(self, timeout: float | None = None):
        """The resolved value, waiting up to ``timeout`` seconds.

        Raises :class:`TimeoutError` when the deadline expires first —
        at which point the caller may shed (resolve the ticket itself
        with a fallback value) and any late resolution is discarded.
        """
        if not self._event.wait(timeout):
            raise TimeoutError("ticket not resolved within timeout")
        if self._exc is not None:
            raise self._exc
        return self._value


class MicroBatcher:
    """Bounded request queue + dispatcher thread with adaptive flushing.

    Parameters
    ----------
    dispatch:
        ``dispatch(items) -> results`` called on the dispatcher thread
        with 1..max_batch_size queued items (FIFO order); must return one
        result per item.  An exception fails every ticket in the flush.
    max_batch_size:
        Flush immediately once this many requests are queued.
    deadline_s:
        Flush once the oldest queued request has waited this long.
    max_queue_depth:
        :meth:`submit` raises :class:`QueueFullError` beyond this depth.
    """

    def __init__(self, dispatch: Callable[[Sequence], Sequence], *,
                 max_batch_size: int = 32, deadline_s: float = 0.002,
                 max_queue_depth: int = 256):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if deadline_s <= 0:
            raise ValueError("deadline_s must be positive")
        if max_queue_depth < max_batch_size:
            raise ValueError("max_queue_depth must be >= max_batch_size")
        self._dispatch = dispatch
        self.max_batch_size = int(max_batch_size)
        self.deadline_s = float(deadline_s)
        self.max_queue_depth = int(max_queue_depth)

        self._cond = new_condition("MicroBatcher._cond")
        self._pending: deque[tuple[object, Ticket]] = deque()
        self._closed = False
        self._paused = False
        #: flushes by trigger: "full" | "deadline" | "drain" (close-time)
        self.flush_reasons: dict[str, int] = {
            "full": 0, "deadline": 0, "drain": 0}
        self.batches_dispatched = 0
        self.requests_dispatched = 0
        self._thread = threading.Thread(
            target=self._run, name="repro-serve-dispatch", daemon=True)
        self._thread.start()

    # -- client side ---------------------------------------------------- #
    def submit(self, item) -> Ticket:
        """Enqueue one request; returns its :class:`Ticket`.

        Raises :class:`QueueFullError` when the queue is at capacity and
        ``RuntimeError`` after :meth:`close`.
        """
        with self._cond:
            if self._closed:
                raise RuntimeError("cannot submit to a closed MicroBatcher")
            if len(self._pending) >= self.max_queue_depth:
                raise QueueFullError(
                    f"queue depth {len(self._pending)} at capacity "
                    f"{self.max_queue_depth}")
            ticket = Ticket()
            self._pending.append((item, ticket))
            gauge("serve_queue_depth").set(len(self._pending))
            self._cond.notify_all()
            return ticket

    @property
    def depth(self) -> int:
        with self._cond:
            return len(self._pending)

    def stats(self) -> dict:
        """Dispatch counters, snapshotted under the batcher's condition.

        The counters are written by the dispatcher thread inside
        ``_collect``'s locked region; cross-thread readers (the
        service's ``stats()``) must come through here rather than read
        the attributes bare — the C002 concurrency lint enforces it.
        """
        with self._cond:
            return {
                "batches_dispatched": self.batches_dispatched,
                "requests_dispatched": self.requests_dispatched,
                "flush_reasons": dict(self.flush_reasons),
            }

    # -- test / lifecycle controls -------------------------------------- #
    def pause(self) -> None:
        """Hold all flushing (deterministic queue build-up in tests)."""
        with self._cond:
            self._paused = True

    def resume(self) -> None:
        with self._cond:
            self._paused = False
            self._cond.notify_all()

    def close(self, timeout: float = 5.0) -> None:
        """Drain the queue, stop the dispatcher, reject new submits."""
        with self._cond:
            self._closed = True
            self._paused = False
            self._cond.notify_all()
        self._thread.join(timeout)

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- dispatcher thread ---------------------------------------------- #
    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            items = [item for item, _ in batch]
            now = time.monotonic()
            try:
                with span("serve.flush", batch=len(items)):
                    results = list(self._dispatch(items))
                    if len(results) != len(items):
                        raise RuntimeError(
                            f"dispatch returned {len(results)} results "
                            f"for {len(items)} requests")
            except Exception as exc:
                counter("serve_dispatch_errors_total").inc(len(batch))
                for _, ticket in batch:
                    self._resolve(ticket, len(items), now,
                                  exception=exc)
            else:
                for (_, ticket), value in zip(batch, results):
                    self._resolve(ticket, len(items), now, value=value)

    def _resolve(self, ticket: Ticket, batch_size: int, flushed_at: float,
                 value=None, exception: BaseException | None = None) \
            -> None:
        """Resolve one ticket under its captured request context.

        The re-attach is what joins the dispatcher's side of the story
        to the request tree: ``serve.resolve`` parents to the span that
        was open when the ticket was created (normally
        ``serve.request`` on the caller thread).
        """
        with use_context(ticket.ctx), \
                span("serve.resolve", batch=batch_size,
                     wait_ms=round(1e3 * (flushed_at
                                          - ticket.enqueued_at), 3)):
            if exception is not None:
                ticket.set_exception(exception)
            else:
                ticket.set_result(value)

    def _collect(self) -> list[tuple[object, Ticket]] | None:
        """Block until a flush fires; pop and account for its batch."""
        with self._cond:
            while True:
                while not self._pending or self._paused:
                    if self._closed:
                        if not self._pending:
                            return None
                        break  # close() cleared _paused: drain the rest
                    self._cond.wait(_IDLE_WAIT_S)
                deadline = self._pending[0][1].enqueued_at + self.deadline_s
                while (len(self._pending) < self.max_batch_size
                       and not self._closed and not self._paused):
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        break
                    self._cond.wait(remaining)
                if self._paused and not self._closed:
                    continue  # paused mid-wait: go back to idling
                break
            take = min(self.max_batch_size, len(self._pending))
            batch = [self._pending.popleft() for _ in range(take)]
            gauge("serve_queue_depth").set(len(self._pending))
            if take == self.max_batch_size:
                reason = "full"
            elif self._closed:
                reason = "drain"
            else:
                reason = "deadline"
            self.flush_reasons[reason] += 1
            self.batches_dispatched += 1
            self.requests_dispatched += take
        histogram("serve_batch_size").observe(take)
        return batch
