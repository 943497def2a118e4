"""SLO engine, histogram-quantile edge semantics, and metrics
thread-safety.

The SLO engine evaluates declarative objectives from windowed registry
snapshot deltas (Prometheus ``increase()`` semantics); the quantile
helper's edge cases are pinned by contract, not emergent; and the
metrics primitives must count exactly under concurrent writers because
both the serving path and the quality monitor hammer them from multiple
threads."""

from __future__ import annotations

import math
import threading

import pytest

from repro import obs
from repro.obs.metrics import (Counter, Histogram, MetricsRegistry,
                               histogram_quantile)
from repro.obs.slo import (SLOEngine, SLOSpec, default_serve_slos,
                           format_slo_report)


# --------------------------------------------------------------------- #
# histogram_quantile edge semantics
# --------------------------------------------------------------------- #

class TestHistogramQuantile:
    def test_empty_is_nan(self):
        assert math.isnan(histogram_quantile((1.0, 2.0), [0, 0], 0, 0.5))

    def test_q0_is_lower_edge_of_first_nonempty_bucket(self):
        # leading bucket empty: q=0 must not report its upper bound
        assert histogram_quantile((1.0, 2.0, 4.0), [0, 3, 3], 3,
                                  0.0) == 1.0
        # first bucket occupied: q=0 is its lower edge, 0.0
        assert histogram_quantile((1.0, 2.0), [2, 2], 2, 0.0) == 0.0

    def test_q1_is_upper_bound_of_last_occupied_bucket(self):
        assert histogram_quantile((1.0, 2.0, 4.0), [1, 1, 3], 3,
                                  1.0) == 4.0

    def test_all_in_overflow_clamps_to_last_finite_bound(self):
        # every observation beyond the last bound: any q returns it
        for q in (0.0, 0.5, 0.99, 1.0):
            assert histogram_quantile((1.0, 2.0), [0, 0], 5, q) == 2.0

    def test_linear_interpolation_within_bucket(self):
        # 4 obs in (1, 2]: median ranks 2/4 of the way through
        assert histogram_quantile((1.0, 2.0), [0, 4], 4, 0.5) == 1.5

    def test_empty_middle_buckets_skipped(self):
        # ranks falling in the empty (1, 2] bucket resolve in (2, 4]
        v = histogram_quantile((1.0, 2.0, 4.0), [1, 1, 2], 2, 0.75)
        assert 2.0 < v <= 4.0

    def test_out_of_range_q_rejected(self):
        with pytest.raises(ValueError):
            histogram_quantile((1.0,), [1], 1, 1.5)
        with pytest.raises(ValueError):
            histogram_quantile((1.0,), [1], 1, -0.1)

    def test_histogram_method_matches_module_function(self):
        h = Histogram("x", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0):
            h.observe(v)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.5) == 1.5
        assert h.quantile(1.0) == 4.0

    def test_empty_histogram_quantile_is_nan(self):
        assert math.isnan(Histogram("x", buckets=(1.0,)).quantile(0.99))

    def test_histogram_all_overflow_regression(self):
        h = Histogram("x", buckets=(1.0,))
        h.observe(100.0)
        assert h.quantile(0.99) == 1.0


# --------------------------------------------------------------------- #
# SLO specs + engine
# --------------------------------------------------------------------- #

class TestSLOSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="latency", objective=0.1)

    def test_nonpositive_objective_rejected(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="ratio", objective=0.0,
                    bad_counter="b")

    def test_quantile_bounds_enforced(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="quantile", objective=0.1,
                    quantile=1.0)

    def test_ratio_needs_bad_counter(self):
        with pytest.raises(ValueError):
            SLOSpec(name="x", kind="ratio", objective=0.1)

    def test_default_serve_slos_cover_latency_shed_error(self):
        names = {s.name for s in default_serve_slos()}
        assert names == {"serve-p99-latency", "serve-shed-rate",
                         "serve-error-rate"}


def _ratio_engine(registry, objective=0.05, window_s=60.0) -> SLOEngine:
    return SLOEngine(registry, specs=(
        SLOSpec(name="shed", kind="ratio", objective=objective,
                window_s=window_s, bad_counter="serve_shed_total"),))


class TestSLOEngineRatio:
    def test_evaluate_requires_a_snapshot(self):
        with pytest.raises(RuntimeError):
            _ratio_engine(MetricsRegistry()).evaluate(now=0.0)

    def test_burn_rate_is_frac_over_objective(self):
        reg = MetricsRegistry()
        reg.counter("serve_requests_total").inc(100)
        reg.counter("serve_shed_total").inc(10)
        engine = _ratio_engine(reg, objective=0.05)
        engine.snapshot(now=0.0)
        (status,) = engine.evaluate(now=0.0)
        assert status.value == pytest.approx(0.10)
        assert not status.ok
        assert status.burn_rate == pytest.approx(2.0)
        assert status.budget_remaining == pytest.approx(-1.0)
        assert status.samples == 100

    def test_window_differences_snapshots(self):
        reg = MetricsRegistry()
        reg.counter("serve_requests_total").inc(100)
        reg.counter("serve_shed_total").inc(100)  # old badness
        engine = _ratio_engine(reg, window_s=60.0)
        engine.snapshot(now=0.0)
        reg.counter("serve_requests_total").inc(100)  # clean window
        engine.snapshot(now=60.0)
        (status,) = engine.evaluate(now=120.0)
        # baseline = t=0 snapshot: only the clean delta is in scope
        assert status.ok
        assert status.value == 0.0
        assert status.samples == 100

    def test_no_traffic_is_vacuously_ok(self):
        engine = _ratio_engine(MetricsRegistry())
        engine.snapshot(now=0.0)
        (status,) = engine.evaluate(now=0.0)
        assert status.ok and status.samples == 0

    def test_check_and_violation_counters(self):
        reg = MetricsRegistry()
        reg.counter("serve_requests_total").inc(10)
        reg.counter("serve_shed_total").inc(9)
        engine = _ratio_engine(reg)
        engine.snapshot(now=0.0)
        with obs.observed() as (_t, obs_reg):
            ok, statuses = engine.check(now=0.0)
            assert not ok and len(statuses) == 1
            counts = {m.name: m.value for m in obs_reg
                      if m.kind == "counter"}
        assert counts["slo_evaluations_total"] == 1
        assert counts["slo_violations_total"] == 1


class TestSLOEngineQuantile:
    def _latency_engine(self, values, objective=0.050):
        reg = MetricsRegistry()
        h = reg.histogram("serve_latency_seconds")  # declared buckets
        for v in values:
            h.observe(v)
        engine = SLOEngine(reg, specs=(
            SLOSpec(name="p99", kind="quantile", objective=objective,
                    quantile=0.99,
                    histogram="serve_latency_seconds"),))
        engine.snapshot(now=0.0)
        return engine

    def test_fast_workload_passes(self):
        engine = self._latency_engine([0.0005] * 100)
        (status,) = engine.evaluate(now=0.0)
        assert status.ok
        assert status.value <= 0.001
        assert status.burn_rate == 0.0

    def test_slow_tail_fails_with_burn(self):
        # 10% of requests in (0.1, 1.0]: p99 lands there, and the
        # fraction above the 50 ms objective burns 0.1 / 0.01 = 10x
        engine = self._latency_engine([0.005] * 90 + [0.5] * 10)
        (status,) = engine.evaluate(now=0.0)
        assert not status.ok
        assert status.value > 0.05
        assert status.burn_rate == pytest.approx(10.0)

    def test_missing_histogram_is_vacuously_ok(self):
        engine = SLOEngine(MetricsRegistry(), specs=(
            SLOSpec(name="p99", kind="quantile", objective=0.05),))
        engine.snapshot(now=0.0)
        (status,) = engine.evaluate(now=0.0)
        assert status.ok and status.samples == 0

    def test_to_dict_round_trips_status_fields(self):
        engine = self._latency_engine([0.0005] * 10)
        doc = engine.to_dict(now=0.0)
        (entry,) = doc["slos"]
        assert entry["name"] == "p99" and entry["ok"] is True
        assert set(entry) >= {"kind", "objective", "value", "burn_rate",
                              "budget_remaining", "samples", "window_s"}

    def test_format_report_marks_ok_and_fail(self):
        ok_engine = self._latency_engine([0.0005] * 10)
        bad_engine = self._latency_engine([0.5] * 10)
        ok_text = format_slo_report(ok_engine.evaluate(now=0.0))
        bad_text = format_slo_report(bad_engine.evaluate(now=0.0))
        assert "OK " in ok_text and "FAIL" not in ok_text
        assert "FAIL" in bad_text
        assert format_slo_report([]) == "(no SLOs configured)"


class TestSLOServeIntegration:
    def test_healthy_serve_workload_meets_default_objectives(self):
        from repro.core import DNNOccu, DNNOccuConfig
        from repro.gpu import get_device
        from repro.models import ModelConfig, build_model
        from repro.serve import PredictorService
        device = get_device("A100")
        model = DNNOccu(DNNOccuConfig(hidden=16, num_heads=2), seed=3)
        graphs = [build_model(n, ModelConfig(batch_size=4))
                  for n in ("lenet", "alexnet")]
        with obs.observed() as (_tracer, registry):
            engine = SLOEngine(registry)
            engine.snapshot(now=0.0)
            with PredictorService(model, device) as svc:
                for i in range(20):
                    svc.predict(graphs[i % len(graphs)])
            engine.snapshot(now=30.0)
            ok, statuses = engine.check(now=30.0)
        assert ok, format_slo_report(statuses)
        by_name = {s.spec.name: s for s in statuses}
        assert by_name["serve-shed-rate"].samples == 20


# --------------------------------------------------------------------- #
# metrics thread-safety
# --------------------------------------------------------------------- #

class TestMetricsConcurrency:
    THREADS = 8
    PER_THREAD = 2500

    def _hammer(self, fn):
        threads = [threading.Thread(target=fn)
                   for _ in range(self.THREADS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    def test_counter_increments_are_exact(self):
        c = Counter("hits")
        self._hammer(lambda: [c.inc() for _ in range(self.PER_THREAD)])
        assert c.snapshot() == self.THREADS * self.PER_THREAD

    def test_histogram_counts_are_exact(self):
        h = Histogram("lat", buckets=(0.5, 1.0, 2.0))
        values = (0.1, 0.7, 1.5, 5.0)

        def worker():
            for i in range(self.PER_THREAD):
                h.observe(values[i % len(values)])

        self._hammer(worker)
        cum, count, total = h.state()
        n = self.THREADS * self.PER_THREAD
        assert count == n
        assert cum[-1] == n * 3 // 4  # 5.0 overflows the last bucket
        per_value = n // len(values)
        assert total == pytest.approx(per_value * sum(values))

    def test_registry_get_or_create_is_singleton_under_race(self):
        reg = MetricsRegistry()
        seen = []

        def worker():
            c = reg.counter("shared_total")
            seen.append(c)
            for _ in range(self.PER_THREAD):
                c.inc()

        self._hammer(worker)
        assert len({id(c) for c in seen}) == 1
        assert reg.counter("shared_total").snapshot() == \
            self.THREADS * self.PER_THREAD

    def test_iteration_during_concurrent_registration(self):
        reg = MetricsRegistry()
        stop = threading.Event()
        errors = []

        def registrar(k: int):
            i = 0
            while not stop.is_set():
                reg.counter(f"c_{k}_{i % 50}").inc()
                i += 1

        def reader():
            try:
                while not stop.is_set():
                    for metric in reg:
                        metric.snapshot()
                    len(reg)
            except Exception as exc:  # snapshot consistency violated
                errors.append(exc)

        threads = [threading.Thread(target=registrar, args=(k,))
                   for k in range(4)]
        threads.append(threading.Thread(target=reader))
        for t in threads:
            t.start()
        timer = threading.Timer(0.5, stop.set)
        timer.start()
        for t in threads:
            t.join()
        timer.cancel()
        assert not errors
