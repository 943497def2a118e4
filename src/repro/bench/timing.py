"""The two timing primitives every suite shares."""

from __future__ import annotations

import gc
import time

__all__ = ["best_of", "paired_medians"]


def best_of(fn, repeats: int) -> float:
    """Minimum wall time over ``repeats`` runs of ``fn`` (noise floor).

    Single-core CI boxes jitter by tens of percent run-to-run; the min is
    the standard estimator of the true cost of a deterministic function.
    Use it for runs of seconds, far longer than a transient slowdown of
    the host; a ratio of two short costs belongs in :func:`paired_medians`.
    """
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def paired_medians(a, b, pairs: int) -> tuple[float, float]:
    """Median wall times of ``a`` and ``b``, timed call-by-call interleaved.

    Each pair runs ``a`` then ``b`` back to back with GC paused, so clock
    drift and transient slow windows of the host land on both sides of a
    pair; the medians then discard the pairs a stall hit, as long as it
    hit fewer than half of them.  Back-to-back repeats of one side (the
    :func:`best_of` layout) can instead fall entirely inside one window.
    """
    ta: list[float] = []
    tb: list[float] = []
    pc = time.perf_counter
    gc_was = gc.isenabled()
    gc.disable()
    try:
        for _ in range(pairs):
            t0 = pc()
            a()
            t1 = pc()
            b()
            t2 = pc()
            ta.append(t1 - t0)
            tb.append(t2 - t1)
    finally:
        if gc_was:
            gc.enable()
    ta.sort()
    tb.sort()
    return ta[pairs // 2], tb[pairs // 2]
