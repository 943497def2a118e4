"""Flight recorder: a bounded ring of the last N serve request records.

Traces answer "where did the time go" and metrics answer "how much", but
neither answers the on-call question "what did the last hundred requests
actually do?"  The flight recorder does: every completed
:class:`~repro.serve.PredictorService` request appends one compact
:class:`FlightRecord` (ids, timing, batch size, cache outcome, fallback
tier, the prediction itself), and ``repro obs --requests`` prints the
tail next to the span tree it belongs to.

The ring is always on (the service records by default, tracer or not),
so its write path is budgeted like the tracer's no-op path: the ring is
a ``deque(maxlen=N)`` written without a lock — ``deque.append`` and
``itertools.count`` steps are single GIL-atomic operations, and readers
snapshot with ``list(deque)``.  Writers may append a bare field tuple
(and an integer request sequence number) instead of a finished
:class:`FlightRecord`; readers coerce on the way out, keeping NamedTuple
construction and id formatting off the serving path.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import NamedTuple, Optional

__all__ = ["FlightRecord", "FlightRecorder", "format_flight_table"]


class FlightRecord(NamedTuple):
    """One completed request, as the service saw it end-to-end."""

    request_id: str
    #: "-" when the request ran without a tracer (ids still minted for
    #: the ring, but there is no trace to correlate with)
    trace_id: str
    graph: str
    device: str
    #: "served" (cache or dispatch), "shed" (fallback), "error"
    outcome: str
    #: "result_hit" | "miss" — whether the result cache answered
    cache: str
    latency_s: float
    prediction: Optional[float]
    #: flush size the request was dispatched in; 0 = never batched
    #: (cache hit or shed)
    batch_size: int = 0
    fallback_tier: Optional[str] = None
    error: Optional[str] = None


class FlightRecorder:
    """Bounded ring buffer of :class:`FlightRecord` (thread-safe, lockless)."""

    def __init__(self, capacity: int = 256):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = int(capacity)
        self._records: deque[FlightRecord] = deque(maxlen=self.capacity)
        self._written = itertools.count(1)
        self._total = 0

    def record(self, rec) -> None:
        """Append a :class:`FlightRecord` or a bare 11-field tuple."""
        # conc: lockfree-ok -- deque.append with maxlen and next() on
        # itertools.count are single GIL-atomic operations; readers
        # snapshot via list(self._records) and never see a torn state
        self._records.append(rec)
        self._total = next(self._written)

    @staticmethod
    def _coerce(raw) -> FlightRecord:
        rec = raw if isinstance(raw, FlightRecord) \
            else FlightRecord._make(raw)
        if isinstance(rec.request_id, int):
            rec = rec._replace(request_id=f"req-{rec.request_id:06d}")
        return rec

    def records(self) -> list[FlightRecord]:
        """Oldest-to-newest snapshot of the ring."""
        return [self._coerce(r) for r in self._records]

    def to_dicts(self) -> list[dict]:
        """JSON-friendly form (rides in Chrome traces' ``otherData``)."""
        return [r._asdict() for r in self.records()]

    def summary(self) -> dict:
        """Counts by outcome and cache over the current ring contents."""
        by_outcome: dict[str, int] = {}
        by_cache: dict[str, int] = {}
        for rec in self.records():
            by_outcome[rec.outcome] = by_outcome.get(rec.outcome, 0) + 1
            by_cache[rec.cache] = by_cache.get(rec.cache, 0) + 1
        return {"recorded_total": self.total, "in_ring": len(self),
                "by_outcome": by_outcome, "by_cache": by_cache}

    @property
    def total(self) -> int:
        """Records ever written (>= len(self) once the ring wraps)."""
        return self._total

    def __len__(self) -> int:
        return len(self._records)

    def clear(self) -> None:
        self._records.clear()


def format_flight_table(records, limit: int = 20) -> str:
    """Aligned text table of the newest ``limit`` records.

    Accepts :class:`FlightRecord` objects or their dict form (as loaded
    back out of a trace file's ``otherData.flight``).
    """
    rows = []
    for rec in list(records)[-limit:]:
        d = rec if isinstance(rec, dict) else rec._asdict()
        pred = d.get("prediction")
        detail = d.get("fallback_tier") or d.get("error") or ""
        rows.append((
            str(d.get("request_id", "?")),
            str(d.get("graph", "?"))[:18],
            str(d.get("outcome", "?")),
            str(d.get("cache", "?")),
            f"{1e3 * float(d.get('latency_s') or 0.0):.3f}",
            str(int(d.get("batch_size") or 0)),
            "-" if pred is None else f"{float(pred):.4f}",
            str(detail),
        ))
    if not rows:
        return "(flight recorder empty)"
    header = ("request", "graph", "outcome", "cache", "ms", "batch",
              "pred", "detail")
    widths = [max(len(header[i]), *(len(r[i]) for r in rows))
              for i in range(len(header))]
    lines = ["  " + "  ".join(h.ljust(w) for h, w in zip(header, widths))]
    for r in rows:
        lines.append("  " + "  ".join(c.ljust(w)
                                      for c, w in zip(r, widths)))
    return "\n".join(lines)
