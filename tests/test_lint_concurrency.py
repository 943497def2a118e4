"""Concurrency static analyzer (C001–C005) + runtime lock sanitizer.

Contract mirrors ``test_lint.py``: every code fires exactly once on its
broken fixture (and fires *alone* — no collateral diagnostics), the
real source tree lints concurrency-clean after this PR's fixes, and the
``# conc: lockfree-ok`` opt-out only works with a reason attached to an
actual shared-access site.  The second half covers the LockWatch
sanitizer: acquisition edges, inversions, hold times, Condition
integration, the static/dynamic cross-check, and a serve workload run
fully instrumented.
"""

from __future__ import annotations

import pathlib
import threading
import time
from collections import Counter

import pytest

import repro
from repro.lint import (LintReport, LockWatch, current_watch,
                        default_manager, default_source_roots,
                        install_watch, lint_concurrency, new_condition,
                        new_lock, new_rlock, static_acquisition_graph,
                        uninstall_watch)
from repro.lint.concurrency import build_program_model
from repro.lint.manager import ProgramContext


def codes(report: LintReport) -> Counter:
    return Counter(d.code for d in report.diagnostics)


def lint_source(src: str, path: str = "fixture.py") -> LintReport:
    return default_manager().run_program([(path, src)])


# --------------------------------------------------------------------- #
# Broken fixtures: each code fires exactly once, and alone
# --------------------------------------------------------------------- #

C001_SRC = '''\
import threading

class Worker:
    def __init__(self):
        self.count = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        self.count += 1

    def value(self):
        return self.count

    def close(self):
        self._thread.join()
'''


def test_c001_unguarded_shared_attribute():
    c = codes(lint_source(C001_SRC))
    assert c["C001"] == 1
    assert set(c) == {"C001"}


C002_SRC = '''\
import threading

class Worker:
    def __init__(self):
        self._lock = threading.Lock()
        self.count = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        with self._lock:
            self.count += 1

    def value(self):
        return self.count

    def close(self):
        self._thread.join()
'''


def test_c002_inconsistently_guarded_attribute():
    c = codes(lint_source(C002_SRC))
    assert c["C002"] == 1
    assert set(c) == {"C002"}


C003_SRC = '''\
import threading

class Pair:
    def __init__(self):
        self._a = threading.Lock()
        self._b = threading.Lock()

    def forward(self):
        with self._a:
            with self._b:
                pass

    def backward(self):
        with self._b:
            with self._a:
                pass
'''


def test_c003_lock_order_cycle():
    report = lint_source(C003_SRC)
    c = codes(report)
    assert c["C003"] == 1
    assert set(c) == {"C003"}
    (diag,) = report.by_code("C003")
    assert "Pair._a" in diag.message and "Pair._b" in diag.message


C003_SELF_SRC = '''\
import threading

class Nested:
    def __init__(self):
        self._lock = threading.Lock()

    def outer(self):
        with self._lock:
            with self._lock:
                pass
'''


def test_c003_nonreentrant_self_deadlock():
    c = codes(lint_source(C003_SELF_SRC))
    assert c["C003"] == 1
    assert set(c) == {"C003"}


def test_c003_reentrant_self_acquire_is_fine():
    c = codes(lint_source(C003_SELF_SRC.replace("threading.Lock()",
                                                "threading.RLock()")))
    assert not c


C004_SRC = '''\
import threading

class Slow:
    def __init__(self):
        self._lock = threading.Lock()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        pass

    def close(self):
        with self._lock:
            self._thread.join()
'''


def test_c004_blocking_while_locked():
    c = codes(lint_source(C004_SRC))
    assert c["C004"] == 1
    assert set(c) == {"C004"}


C005_SRC = '''\
import threading

class Leaky:
    def __init__(self):
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        pass
'''


def test_c005_daemon_thread_without_join():
    c = codes(lint_source(C005_SRC))
    assert c["C005"] == 1
    assert set(c) == {"C005"}


def test_condition_wait_holding_only_itself_is_exempt():
    src = '''\
import threading

class Waiter:
    def __init__(self):
        self._cond = threading.Condition()

    def wait_for_work(self):
        with self._cond:
            self._cond.wait(0.05)
'''
    assert not codes(lint_source(src))


def test_condition_wait_holding_another_lock_fires_c004():
    src = '''\
import threading

class Waiter:
    def __init__(self):
        self._cond = threading.Condition()
        self._lock = threading.Lock()

    def wait_for_work(self):
        with self._lock:
            with self._cond:
                self._cond.wait(0.05)
'''
    c = codes(lint_source(src))
    assert c["C004"] == 1


# --------------------------------------------------------------------- #
# The lockfree-ok opt-out contract
# --------------------------------------------------------------------- #

def _annotated(comment: str) -> str:
    return C001_SRC.replace(
        "        self.count += 1",
        f"        {comment}\n        self.count += 1")


def test_lockfree_optout_with_reason_suppresses():
    src = _annotated("# conc: lockfree-ok -- += on int is fine here")
    assert not codes(lint_source(src))


def test_lockfree_optout_without_reason_does_not_suppress():
    src = _annotated("# conc: lockfree-ok")
    assert codes(lint_source(src))["C001"] == 1


def test_lockfree_optout_away_from_access_site_does_not_suppress():
    # parked on the class body, nowhere near a shared access of `count`
    src = C001_SRC.replace(
        "class Worker:",
        "class Worker:\n    # conc: lockfree-ok -- stale annotation")
    assert codes(lint_source(src))["C001"] == 1


def test_lockfree_optout_is_per_attribute():
    # annotating `count` must not silence a different shared attribute
    # whose access sites sit outside the comment's reach
    src = '''\
import threading

class Worker:
    def __init__(self):
        self.count = 0
        self.other = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        # conc: lockfree-ok -- += on int is fine here
        self.count += 1
        a = 1
        b = 2
        c = 3
        d = 4
        self.other = a + b + c + d

    def value(self):
        return self.count

    def other_value(self):
        return self.other

    def close(self):
        self._thread.join()
'''
    report = lint_source(src)
    c = codes(report)
    assert c["C001"] == 1
    assert report.by_code("C001")[0].target == "Worker.other"


# --------------------------------------------------------------------- #
# Role inference details the serve tree depends on
# --------------------------------------------------------------------- #

def test_callback_escape_into_thread_owning_class_is_worker():
    # `self._tick` never appears as a Thread target, but it escapes into
    # a thread-owning class's constructor — its writes are worker-side.
    src = '''\
import threading

class Runner:
    def __init__(self, callback):
        self._callback = callback
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        self._callback()

    def close(self):
        self._thread.join()

class Owner:
    def __init__(self):
        self.ticks = 0
        self.runner = Runner(self._tick)

    def _tick(self):
        self.ticks += 1

    def read(self):
        return self.ticks
'''
    c = codes(lint_source(src))
    assert c["C001"] == 1  # Owner.ticks: worker write vs client read


def test_cross_class_bare_read_fires_against_owner():
    # the MicroBatcher.stats() bug shape: owner guards its counter, a
    # peer class reads it bare through a typed attribute
    src = '''\
import threading

class Inner:
    def __init__(self):
        self._cond = threading.Condition()
        self.done = 0
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        with self._cond:
            self.done += 1

    def close(self):
        self._thread.join()

class Outer:
    def __init__(self):
        self.inner = Inner()

    def stats(self):
        return {"done": self.inner.done}
'''
    report = lint_source(src)
    c = codes(report)
    assert c["C002"] == 1
    assert report.by_code("C002")[0].target == "Inner.done"


def test_static_acquisition_graph_of_the_tree():
    edges = static_acquisition_graph()
    assert ("FleetService._cond", "HashRing._lock") in edges
    # the documented lock hierarchy is acyclic: no reverse edge
    assert ("HashRing._lock", "FleetService._cond") not in edges


def test_source_tree_lints_concurrency_clean():
    root = pathlib.Path(repro.__file__).parent
    report = lint_concurrency([str(root)])
    assert report.targets_checked >= 50
    assert report.clean, report.format_text()


def test_default_roots_include_scripts_and_benchmarks():
    roots = default_source_roots()
    names = {pathlib.Path(r).name for r in roots}
    assert "repro" in names
    assert {"scripts", "benchmarks"} <= names


def test_default_roots_lint_concurrency_clean():
    report = lint_concurrency()
    assert report.clean, report.format_text()


def test_program_context_parse_error_emits_s000():
    report = default_manager().run_program(
        [("bad.py", "def broken(:\n"), ("ok.py", "X = 1\n")])
    c = codes(report)
    assert c["S000"] == 1


# --------------------------------------------------------------------- #
# LockWatch: the runtime half
# --------------------------------------------------------------------- #

@pytest.fixture()
def watch():
    # save/restore any ambient watch (e.g. REPRO_LOCKWATCH=1 runs)
    prior = uninstall_watch()
    w = install_watch(LockWatch())
    try:
        yield w
    finally:
        uninstall_watch()
        if prior is not None:
            install_watch(prior)


def test_factories_return_plain_primitives_without_watch():
    prior = uninstall_watch()
    try:
        assert current_watch() is None
        assert isinstance(new_lock("X.a"), type(threading.Lock()))
        assert isinstance(new_rlock("X.a"), type(threading.RLock()))
        assert isinstance(new_condition("X.a"), threading.Condition)
    finally:
        if prior is not None:
            install_watch(prior)


def test_watch_records_acquisitions_and_edges(watch):
    a, b = new_lock("T.a"), new_lock("T.b")
    with a:
        with b:
            pass
    assert watch.acquisitions() == {"T.a": 1, "T.b": 1}
    assert watch.edges() == {("T.a", "T.b"): 1}
    assert watch.inversions() == []


def test_watch_detects_order_inversion(watch):
    a, b = new_lock("T.a"), new_lock("T.b")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    assert watch.inversions() == [["T.a", "T.b"]]


def test_watch_hold_times_and_long_holds(watch):
    watch.long_hold_s = 0.005
    lock = new_lock("T.slow")
    with lock:
        time.sleep(0.02)
    stats = watch.hold_stats()["T.slow"]
    assert stats["count"] == 1
    assert stats["max_s"] >= 0.02
    assert watch.long_holds() and watch.long_holds()[0][0] == "T.slow"


def test_watch_condition_wait_releases_and_reacquires(watch):
    cond = new_condition("T.cond")
    with cond:
        cond.wait(0.01)
    # enter + post-wait reacquire both go through the wrapper
    assert watch.acquisitions()["T.cond"] == 2
    assert watch.hold_stats()["T.cond"]["count"] == 2
    assert watch.inversions() == []


def test_watch_reentrant_rlock_is_not_an_edge(watch):
    lock = new_rlock("T.r")
    with lock:
        with lock:
            pass
    assert watch.edges() == {}
    assert watch.acquisitions()["T.r"] == 2


def test_cross_check_against_static_graph(watch):
    a, b = new_lock("T.a"), new_lock("T.b")
    with a:
        with b:
            pass
    result = watch.cross_check({("T.a", "T.b"), ("T.x", "T.y")})
    assert result["confirmed"] == [("T.a", "T.b")]
    assert result["novel"] == []
    assert result["unobserved"] == [("T.x", "T.y")]
    with b:
        with a:
            pass
    assert watch.cross_check({("T.a", "T.b")})["novel"] == \
        [("T.b", "T.a")]


def test_watch_publish_and_report(watch):
    with new_lock("T.a"):
        pass
    rep = watch.report()
    assert rep["acquisitions"] == {"T.a": 1}
    assert rep["inversions"] == []
    watch.publish()  # must not raise, with or without obs enabled


def test_watch_is_thread_safe(watch):
    lock = new_lock("T.hammer")
    counts = [0]

    def spin():
        for _ in range(200):
            with lock:
                counts[0] += 1

    threads = [threading.Thread(target=spin) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert counts[0] == 800
    assert watch.acquisitions()["T.hammer"] == 800
    assert watch.hold_stats()["T.hammer"]["count"] == 800


def test_instrumented_serve_workload_has_no_inversions(watch):
    from repro.core import DNNOccu, DNNOccuConfig
    from repro.gpu import get_device
    from repro.models import ModelConfig, build_model
    from repro.serve import PredictorService

    model = DNNOccu(DNNOccuConfig(hidden=16, num_heads=4), seed=3)
    device = get_device("A100")
    graphs = [build_model(n, ModelConfig(batch_size=4))
              for n in ("lenet", "alexnet")]
    with PredictorService(model, device) as svc:
        errors: list = []

        def client():
            try:
                for g in graphs * 5:
                    svc.predict(g)
                    svc.stats()
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=client) for _ in range(3)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
    assert not errors
    assert watch.acquisitions()  # the serve locks really were watched
    assert watch.inversions() == []
    # every observed ordering is predicted by the static C003 graph
    assert set(watch.edges()) <= static_acquisition_graph()
