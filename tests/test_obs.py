"""Observability subsystem tests: tracing, metrics, logging, exporters,
instrumentation wiring, and the no-op fast path."""

from __future__ import annotations

import io
import json
import logging as stdlib_logging

import numpy as np
import pytest

from repro import obs
from repro.obs.metrics import NULL_METRIC
from repro.obs.tracing import NOOP_SPAN


@pytest.fixture()
def enabled():
    """Scoped tracer+registry; never leaks into other tests."""
    with obs.observed() as (tracer, registry):
        yield tracer, registry


class TestSpans:
    def test_disabled_records_nothing(self):
        assert not obs.is_enabled()
        with obs.span("ignored", k=1):
            pass
        assert obs.get_tracer() is None

    def test_noop_span_is_shared_singleton(self):
        assert obs.span("a") is NOOP_SPAN
        assert obs.span("b", key="v") is NOOP_SPAN
        NOOP_SPAN.set_attr(x=1)  # must not raise

    def test_records_span_with_attrs(self, enabled):
        tracer, _ = enabled
        with obs.span("work", model="lenet"):
            pass
        (rec,) = tracer.events
        assert rec.name == "work"
        assert rec.attrs == {"model": "lenet"}
        assert rec.duration_us >= 0.0

    def test_nesting_depth_and_containment(self, enabled):
        tracer, _ = enabled
        with obs.span("outer"):
            with obs.span("inner"):
                pass
        inner, outer = tracer.events  # inner closes first
        assert (inner.name, outer.name) == ("inner", "outer")
        assert inner.depth == 1 and outer.depth == 0
        assert outer.start_us <= inner.start_us
        assert inner.end_us <= outer.end_us

    def test_timing_monotonicity(self, enabled):
        tracer, _ = enabled
        for _ in range(5):
            with obs.span("step"):
                pass
        starts = [r.start_us for r in tracer.events]
        assert starts == sorted(starts)
        assert all(r.start_us >= 0.0 for r in tracer.events)

    def test_exception_tagged_and_reraised(self, enabled):
        tracer, _ = enabled
        with pytest.raises(ValueError):
            with obs.span("boom"):
                raise ValueError("x")
        assert tracer.events[0].attrs["error"] == "ValueError"

    def test_set_attr_while_open(self, enabled):
        tracer, _ = enabled
        with obs.span("ev") as sp:
            sp.set_attr(found=3)
        assert tracer.events[0].attrs["found"] == 3


class TestChromeExport:
    def test_event_schema(self, enabled):
        tracer, registry = enabled
        with obs.span("outer"):
            with obs.span("inner", node_id=7):
                pass
        trace = json.loads(obs.export_chrome_trace(tracer, registry))
        events = trace["traceEvents"]
        assert len(events) == 2
        for ev in events:
            for field in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert field in ev
            assert ev["ph"] == "X"
        # export sorts by start time: outer first despite closing last
        assert [e["name"] for e in events] == ["outer", "inner"]
        assert events[1]["args"]["node_id"] == 7

    def test_metrics_snapshot_rides_along(self, enabled):
        tracer, registry = enabled
        registry.counter("c_total").inc(2)
        trace = json.loads(obs.export_chrome_trace(tracer, registry))
        assert trace["otherData"]["metrics"]["c_total"][0]["value"] == 2


class TestCounterGauge:
    def test_counter_monotonic(self):
        c = obs.Counter("c_total")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_set_inc_dec(self):
        g = obs.Gauge("g")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value == 13.0

    def test_registry_get_or_create_and_kind_clash(self):
        reg = obs.MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        assert reg.counter("y", gpu="0") is not reg.counter("y", gpu="1")
        with pytest.raises(TypeError):
            reg.gauge("x")

    def test_null_metric_when_disabled(self):
        assert obs.counter("whatever") is NULL_METRIC
        assert obs.gauge("whatever") is NULL_METRIC
        assert obs.histogram("whatever") is NULL_METRIC
        NULL_METRIC.inc()
        NULL_METRIC.set(3)
        NULL_METRIC.observe(1.0)


class TestHistogram:
    def test_bucket_counts(self):
        h = obs.Histogram("h", buckets=(1.0, 10.0, 100.0))
        for v in (0.5, 1.0, 5.0, 50.0, 500.0):
            h.observe(v)
        assert h.bucket_counts == [2, 1, 1]  # le=1 catches 0.5 and 1.0
        assert h.count == 5
        assert h.sum == pytest.approx(556.5)
        assert h.cumulative_counts() == [2, 3, 4]

    def test_rejects_unsorted_buckets(self):
        with pytest.raises(ValueError):
            obs.Histogram("h", buckets=(10.0, 1.0))


class TestPrometheusExposition:
    def test_counter_and_gauge_lines(self):
        reg = obs.MetricsRegistry()
        reg.counter("serve_requests_total").inc(3)
        reg.gauge("serve_queue_depth").set(1.5)
        text = reg.to_prometheus()
        assert "# HELP serve_requests_total prediction requests accepted " \
            "by the service" in text
        assert "# TYPE serve_requests_total counter" in text
        assert "\nserve_requests_total 3\n" in text
        assert "# TYPE serve_queue_depth gauge" in text
        assert "\nserve_queue_depth 1.5\n" in text

    def test_help_comes_from_the_names_table(self, enabled):
        _, registry = enabled
        obs.counter("perf_cache_hits_total").inc()
        text = registry.to_prometheus()
        assert ("# HELP perf_cache_hits_total "
                f"{obs.METRIC_NAMES['perf_cache_hits_total']}\n") in text

    def test_histogram_takes_declared_buckets(self):
        reg = obs.MetricsRegistry()
        declared = obs.METRIC_NAMES["serve_batch_size"][1]
        assert reg.histogram("serve_batch_size").buckets == declared
        assert obs.Histogram("serve_batch_size").buckets == declared
        assert reg.histogram("undeclared").buckets == obs.DEFAULT_BUCKETS

    def test_histogram_series(self):
        reg = obs.MetricsRegistry()
        h = reg.histogram("lat")  # undeclared: DEFAULT_BUCKETS
        for v in (0.5, 5.0, 50.0):
            h.observe(v)
        text = reg.to_prometheus()
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="10"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 55.5" in text
        assert "lat_count 3" in text
        assert "# TYPE lat histogram" in text

    def test_labels_rendered_sorted(self):
        reg = obs.MetricsRegistry()
        reg.counter("busy_total", gpu="1", node="a").inc()
        assert 'busy_total{gpu="1",node="a"} 1' in reg.to_prometheus()

    def test_json_dump_round_trips(self):
        reg = obs.MetricsRegistry()
        reg.counter("c").inc(2)
        assert json.loads(reg.to_json())["c"][0]["value"] == 2


class TestLogging:
    def _capture(self, level="info"):
        stream = io.StringIO()
        logger = obs.configure_logging(level, stream=stream)
        return logger, stream

    def test_key_value_format(self):
        logger, stream = self._capture()
        obs.get_logger("gpu").info("hello world", extra={"node": 3})
        line = stream.getvalue().strip()
        assert "level=info" in line
        assert "logger=repro.gpu" in line
        assert 'msg="hello world"' in line
        assert "node=3" in line
        assert line.startswith("ts=")

    def test_level_filtering(self):
        logger, stream = self._capture("warning")
        obs.get_logger("x").info("dropped")
        obs.get_logger("x").warning("kept")
        assert "dropped" not in stream.getvalue()
        assert "kept" in stream.getvalue()

    def test_reconfigure_does_not_stack_handlers(self):
        self._capture()
        logger, stream = self._capture()
        obs.get_logger("y").warning("once")
        assert stream.getvalue().count("msg=once") == 1

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            obs.configure_logging("verbose")

    def teardown_method(self):
        # drop the test handler so other tests stay silent
        base = stdlib_logging.getLogger("repro")
        for h in list(base.handlers):
            if not isinstance(h, stdlib_logging.NullHandler):
                base.removeHandler(h)


class TestSummary:
    def _trace(self):
        # parent 0..100us with children 10..40 and 50..80 on one lane
        return {"traceEvents": [
            {"name": "parent", "ph": "X", "ts": 0.0, "dur": 100.0,
             "pid": 1, "tid": 1},
            {"name": "child", "ph": "X", "ts": 10.0, "dur": 30.0,
             "pid": 1, "tid": 1},
            {"name": "child", "ph": "X", "ts": 50.0, "dur": 30.0,
             "pid": 1, "tid": 1},
        ]}

    def test_self_time_excludes_children(self):
        stats = {s.name: s for s in obs.span_stats(self._trace())}
        assert stats["parent"].total_us == pytest.approx(100.0)
        assert stats["parent"].self_us == pytest.approx(40.0)
        assert stats["child"].count == 2
        assert stats["child"].self_us == pytest.approx(60.0)

    def test_separate_lanes_do_not_nest(self):
        trace = self._trace()
        trace["traceEvents"][1]["tid"] = 2  # move one child off-lane
        stats = {s.name: s for s in obs.span_stats(trace)}
        assert stats["parent"].self_us == pytest.approx(70.0)

    def test_summarize_renders_spans_and_metrics(self):
        trace = self._trace()
        trace["otherData"] = {"metrics": {
            "c_total": [{"kind": "counter", "value": 4}]}}
        text = obs.summarize_trace(trace)
        assert "parent" in text and "child" in text
        assert "c_total" in text

    def test_load_rejects_non_trace(self, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text('{"foo": 1}')
        with pytest.raises(ValueError):
            obs.load_trace_file(str(path))

    def test_load_accepts_bare_array(self, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text('[{"name": "a", "ph": "X", "ts": 0, "dur": 1}]')
        assert len(obs.load_trace_file(str(path))["traceEvents"]) == 1


class TestProfilerInstrumentation:
    def _graph(self):
        from repro.models import ModelConfig, build_model
        return build_model("lenet", ModelConfig(batch_size=8))

    def test_disabled_profile_records_zero_events(self):
        from repro.gpu import A100, profile_graph
        tracer = obs.Tracer()
        registry = obs.MetricsRegistry()
        profile_graph(self._graph(), A100)  # obs is off
        assert len(tracer.events) == 0
        assert len(registry) == 0

    def test_enabled_profile_records_spans_and_metrics(self, enabled):
        from repro.gpu import A100, profile_graph
        tracer, registry = enabled
        prof = profile_graph(self._graph(), A100)
        names = {r.name for r in tracer.events}
        assert "profile_graph" in names
        assert "lower_node" in names
        snap = registry.to_dict()
        assert snap["profiler_kernels_total"][0]["value"] \
            == prof.num_kernels
        assert snap["profiler_kernel_occupancy"][0]["value"]["count"] \
            == len(prof.records)

    def test_oom_increments_counter_and_names_node(self, enabled):
        from repro.gpu import A100, OutOfMemoryError, profile_graph
        from repro.models import ModelConfig, build_model
        _, registry = enabled
        huge = build_model("vgg-16", ModelConfig(batch_size=4096))
        with pytest.raises(OutOfMemoryError, match=r"peak at node \d+"):
            profile_graph(huge, A100)
        assert registry.to_dict()["profiler_oom_total"][0]["value"] == 1

    def test_training_oom_names_node(self):
        from repro.gpu import A100, OutOfMemoryError, \
            profile_training_graph
        from repro.models import ModelConfig, build_model
        huge = build_model("vgg-16", ModelConfig(batch_size=2048))
        with pytest.raises(OutOfMemoryError, match=r"peak at node \d+"):
            profile_training_graph(huge, A100)

    def test_peak_memory_breakdown_consistent(self):
        from repro.gpu import peak_memory_breakdown, peak_memory_bytes
        graph = self._graph()
        breakdown = peak_memory_breakdown(graph)
        assert breakdown["total_bytes"] == peak_memory_bytes(graph)
        assert breakdown["peak_node_id"] in graph.nodes
        assert breakdown["peak_op_type"] == \
            graph.nodes[breakdown["peak_node_id"]].op_type


class TestTrainerInstrumentation:
    def test_epoch_times_recorded(self, tiny_dataset):
        from repro.baselines import MLPPredictor
        from repro.core import TrainConfig, Trainer
        tr = Trainer(MLPPredictor(seed=0, widths=(16, 16)),
                     TrainConfig(epochs=4))
        hist = tr.fit(tiny_dataset)
        assert len(hist.epoch_time_s) == 4
        assert all(t > 0 for t in hist.epoch_time_s)
        assert hist.total_time_s == pytest.approx(sum(hist.epoch_time_s))

    def test_evaluate_surfaces_fit_time(self, tiny_dataset):
        from repro.baselines import MLPPredictor
        from repro.core import TrainConfig, Trainer
        tr = Trainer(MLPPredictor(seed=0, widths=(16, 16)),
                     TrainConfig(epochs=2))
        assert tr.evaluate(tiny_dataset)["fit_time_s"] == 0.0
        tr.fit(tiny_dataset)
        ev = tr.evaluate(tiny_dataset)
        assert ev["fit_time_s"] == pytest.approx(tr.history.total_time_s)
        assert ev["fit_time_s"] > 0

    def test_fit_emits_spans_and_gauges(self, tiny_dataset, enabled):
        from repro.baselines import MLPPredictor
        from repro.core import TrainConfig, Trainer
        tracer, registry = enabled
        tr = Trainer(MLPPredictor(seed=0, widths=(16, 16)),
                     TrainConfig(epochs=3))
        tr.fit(tiny_dataset)
        epochs = [r for r in tracer.events if r.name == "trainer.epoch"]
        assert [r.attrs["epoch"] for r in epochs] == [0, 1, 2]
        snap = registry.to_dict()
        assert snap["trainer_loss"][0]["value"] \
            == pytest.approx(tr.history.train_loss[-1])
        assert snap["trainer_lr"][0]["value"] == pytest.approx(1e-4)


class TestSimulatorInstrumentation:
    def _run(self):
        from repro.gpu import P40
        from repro.sched import SlotPacking, generate_workload, simulate
        jobs = generate_workload(("lenet", "alexnet"), P40, 4, seed=0,
                                 iterations_range=(50, 100))
        return simulate(jobs, 2, SlotPacking())

    def test_disabled_simulate_records_nothing(self):
        self._run()
        assert obs.get_tracer() is None

    def test_enabled_simulate_records_events_and_busy(self, enabled):
        tracer, registry = enabled
        result = self._run()
        names = [r.name for r in tracer.events]
        assert "sched.simulate" in names
        assert names.count("sched.event") >= len(result.jobs)
        snap = registry.to_dict()
        busy = sum(e["value"]
                   for e in snap["sched_gpu_busy_seconds_total"])
        assert busy == pytest.approx(result.busy_integral_s)
        assert snap["sched_queue_depth"][0]["value"] == 0
        assert snap["sched_events_total"][0]["value"] \
            == names.count("sched.event")


class TestObservedScope:
    def test_restores_previous_state(self):
        outer_tracer = obs.install_tracer()
        try:
            with obs.observed() as (inner_tracer, _):
                assert obs.get_tracer() is inner_tracer
            assert obs.get_tracer() is outer_tracer
        finally:
            obs.disable()
        assert not obs.is_enabled()


class TestCliObservability:
    def test_version_flag(self, capsys):
        import repro
        from repro.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert repro.__version__ in capsys.readouterr().out

    def test_trace_out_round_trip(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "t.json")
        assert main(["profile", "--model", "lenet", "--batch", "8",
                     "--trace-out", out]) == 0
        trace = json.loads(open(out).read())
        assert trace["traceEvents"]
        for ev in trace["traceEvents"]:
            for field in ("name", "ph", "ts", "dur", "pid", "tid"):
                assert field in ev
        assert "profiler_kernels_total" in trace["otherData"]["metrics"]
        assert not obs.is_enabled()  # CLI cleaned up after itself
        capsys.readouterr()
        assert main(["obs", out]) == 0
        text = capsys.readouterr().out
        assert "profile_graph" in text
        assert "profiler_kernels_total" in text

    def test_obs_command_on_kernel_timeline(self, tmp_path, capsys):
        from repro.cli import main
        out = str(tmp_path / "k.json")
        assert main(["trace", "--model", "lenet", "--batch", "8",
                     "--out", out]) == 0
        capsys.readouterr()
        assert main(["obs", out]) == 0
        assert "trace:" in capsys.readouterr().out

    def test_log_level_flag_parses(self):
        from repro.cli import build_parser
        args = build_parser().parse_args(
            ["--log-level", "debug", "profile", "--model", "lenet"])
        assert args.log_level == "debug"
        base = stdlib_logging.getLogger("repro")
        for h in list(base.handlers):
            if not isinstance(h, stdlib_logging.NullHandler):
                base.removeHandler(h)
