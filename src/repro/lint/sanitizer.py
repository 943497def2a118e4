"""Runtime lock sanitizer: the dynamic half of the concurrency lint.

The static pass (:mod:`repro.lint.concurrency`) proves lock-order
properties over an *approximated* program; this module observes the
real one.  A :class:`LockWatch` records, for every instrumented lock:

* the **acquisition-order graph** — an edge ``a -> b`` each time ``b``
  is acquired by a thread already holding ``a``;
* **hold times** per lock (count / total / max, plus a bounded raw
  sample buffer for the obs histogram);
* **long holds** over a configurable threshold;
* **order inversions** — strongly-connected components of the observed
  graph (``a`` before ``b`` on one thread, ``b`` before ``a`` on
  another), the dynamic counterpart of a ``C003`` finding.

Production code never names ``threading.Lock`` directly on the watched
path; it calls the :func:`new_lock` / :func:`new_rlock` /
:func:`new_condition` factories with the same qualified
``"Class.attr"`` names the static analyzer uses.  With no watch
installed the factories return *plain* ``threading`` primitives — the
sanitizer-off serving path is byte-for-byte the uninstrumented one,
which is what the <=2% overhead gate in :mod:`repro.bench.obs`
measures.  Installing a watch (:func:`install_watch`, or exporting
``REPRO_LOCKWATCH=1`` before import, as the ``run_all.sh`` sanitizer
pass does) makes every *subsequently constructed* lock a recording
wrapper.

:meth:`LockWatch.cross_check` compares the observed edges against the
static acquisition graph
(:func:`repro.lint.static_acquisition_graph`): a *novel* observed edge
means the static model missed an ordering and should be extended; an
observed inversion that the static pass did not flag is a straight C003
false negative.

The watch's own bookkeeping uses one plain (never instrumented)
``threading.Lock`` and publishes to the :mod:`repro.obs` metrics
registry only in :meth:`publish` — never while a watched lock is held —
so instrumenting the serve locks cannot recurse into the registry's.
"""

from __future__ import annotations

import os
import threading
import time

__all__ = ["LockWatch", "WatchedLock", "WatchedRLock", "install_watch",
           "uninstall_watch", "current_watch", "new_lock", "new_rlock",
           "new_condition"]

#: holds longer than this are reported individually (seconds)
_DEFAULT_LONG_HOLD_S = 0.050

#: raw hold-time samples kept for the obs histogram, per watch
_MAX_HOLD_SAMPLES = 10_000


class _Held:
    """One live acquisition on a thread's hold stack."""

    __slots__ = ("name", "t0")

    def __init__(self, name: str, t0: float):
        self.name = name
        self.t0 = t0


class LockWatch:
    """Accumulates acquisition order, hold times, and inversions."""

    def __init__(self, long_hold_s: float = _DEFAULT_LONG_HOLD_S,
                 clock=time.perf_counter):
        self.long_hold_s = long_hold_s
        self._clock = clock
        self._mu = threading.Lock()  # plain on purpose: never watched
        self._tls = threading.local()
        self._acquires: dict = {}          # name -> count
        self._edges: dict = {}             # (held, acquired) -> count
        self._holds: dict = {}             # name -> [count, total, max]
        self._hold_samples: list = []      # bounded (name, seconds)
        self._long_holds: list = []        # (name, seconds)

    # -- wrapper callbacks ------------------------------------------- #

    def _stack(self) -> list:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def on_acquired(self, name: str) -> None:
        stack = self._stack()
        held = {h.name for h in stack}
        with self._mu:
            self._acquires[name] = self._acquires.get(name, 0) + 1
            for h in held:
                if h != name:  # reentrant re-acquire is not an edge
                    key = (h, name)
                    self._edges[key] = self._edges.get(key, 0) + 1
        stack.append(_Held(name, self._clock()))

    def on_released(self, name: str) -> None:
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].name == name:
                held = stack.pop(i)
                break
        else:
            return  # release without a recorded acquire: ignore
        seconds = self._clock() - held.t0
        with self._mu:
            stat = self._holds.setdefault(name, [0, 0.0, 0.0])
            stat[0] += 1
            stat[1] += seconds
            stat[2] = max(stat[2], seconds)
            if len(self._hold_samples) < _MAX_HOLD_SAMPLES:
                self._hold_samples.append((name, seconds))
            if seconds >= self.long_hold_s:
                self._long_holds.append((name, seconds))

    # -- queries ------------------------------------------------------ #

    def edges(self) -> dict:
        with self._mu:
            return dict(self._edges)

    def acquisitions(self) -> dict:
        with self._mu:
            return dict(self._acquires)

    def hold_stats(self) -> dict:
        """name -> {count, total_s, max_s, mean_s}."""
        with self._mu:
            return {name: {"count": c, "total_s": t, "max_s": mx,
                           "mean_s": t / c if c else 0.0}
                    for name, (c, t, mx) in self._holds.items()}

    def long_holds(self) -> list:
        with self._mu:
            return list(self._long_holds)

    def inversions(self) -> list:
        """Observed lock-order inversions: SCCs of the edge graph.

        Each entry is a sorted list of lock names acquired in
        conflicting orders — the runtime analogue of a static C003
        cycle.  Empty means every observed interleaving respected one
        total order."""
        from .concurrency import _cycles
        return _cycles(self.edges())

    def cross_check(self, static_edges: set) -> dict:
        """Compare observed orders against the static C003 graph.

        ``confirmed`` edges were both predicted and observed; ``novel``
        edges were observed but missing from the static model (extend
        the analyzer or the annotations); ``unobserved`` were predicted
        but never exercised by this run."""
        observed = set(self.edges())
        static = set(static_edges)
        return {
            "confirmed": sorted(observed & static),
            "novel": sorted(observed - static),
            "unobserved": sorted(static - observed),
        }

    def report(self) -> dict:
        """One JSON-friendly snapshot of everything the watch saw."""
        return {
            "acquisitions": self.acquisitions(),
            "edges": {f"{a} -> {b}": n
                      for (a, b), n in sorted(self.edges().items())},
            "hold_stats": self.hold_stats(),
            "long_holds": self.long_holds(),
            "inversions": self.inversions(),
        }

    def publish(self) -> None:
        """Flush the watch into the obs metrics registry.

        Deliberately batched — the hot-path callbacks never touch the
        (themselves locked) obs metrics, so watching the serve locks
        cannot recurse into the registry's."""
        from ..obs.metrics import counter, histogram
        with self._mu:
            acquires = dict(self._acquires)
            samples = list(self._hold_samples)
            self._hold_samples.clear()
        for name, n in sorted(acquires.items()):
            counter("lockwatch_acquisitions_total",
                    "lock acquisitions seen by the sanitizer",
                    lock=name).inc(n)
        hist = histogram("lockwatch_hold_seconds",
                         "lock hold times seen by the sanitizer")
        for _name, seconds in samples:
            hist.observe(seconds)
        inversions = self.inversions()
        if inversions:
            counter("lockwatch_inversions_total",
                    "observed lock-order inversions").inc(len(inversions))


# --------------------------------------------------------------------- #
# instrumented primitives
# --------------------------------------------------------------------- #

class WatchedLock:
    """A ``threading.Lock`` that reports to a :class:`LockWatch`."""

    _factory = staticmethod(threading.Lock)

    def __init__(self, name: str, watch: LockWatch):
        self.name = name
        self._watch = watch
        self._inner = self._factory()

    def acquire(self, blocking: bool = True,
                timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            self._watch.on_acquired(self.name)
        return got

    def release(self) -> None:
        self._watch.on_released(self.name)
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover
        return f"<{type(self).__name__} {self.name!r}>"


class WatchedRLock(WatchedLock):
    """A ``threading.RLock`` wrapper; also usable inside a Condition."""

    _factory = staticmethod(threading.RLock)

    def _is_owned(self) -> bool:
        # Condition delegates ownership checks here; answering from the
        # inner RLock avoids the probing acquire(False) fallback, which
        # would pollute the acquisition record.
        return self._inner._is_owned()


def install_watch(watch: "LockWatch | None" = None) -> LockWatch:
    """Install (and return) the process-wide watch.

    Only locks constructed *after* installation are instrumented."""
    global _watch
    _watch = watch if watch is not None else LockWatch()
    return _watch


def uninstall_watch() -> "LockWatch | None":
    """Remove the process-wide watch; returns it for a final report."""
    global _watch
    w, _watch = _watch, None
    return w


def current_watch() -> "LockWatch | None":
    return _watch


def new_lock(name: str):
    """A lock named like its static counterpart (``"Class.attr"``).

    Plain ``threading.Lock`` when no watch is installed — the
    sanitizer-off path carries zero wrapper overhead."""
    w = _watch
    return threading.Lock() if w is None else WatchedLock(name, w)


def new_rlock(name: str):
    w = _watch
    return threading.RLock() if w is None else WatchedRLock(name, w)


def new_condition(name: str):
    """A condition whose underlying (r)lock is watched.

    ``Condition.wait`` releases and re-acquires through the wrapper, so
    waits show up as hold-time boundaries, not artificial long holds."""
    w = _watch
    if w is None:
        return threading.Condition()
    return threading.Condition(WatchedRLock(name, w))


_watch: "LockWatch | None" = None
if os.environ.get("REPRO_LOCKWATCH", "") not in ("", "0"):
    install_watch()
