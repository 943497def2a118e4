"""repro.bench: one suite registry, one gate table, one ``repro bench``."""

from __future__ import annotations

import ast
import json
import pathlib
import time

import pytest

from repro import bench
from repro.bench.timing import paired_medians
from repro.cli import build_parser, main

#: the acceptance contract: names and order of every gate
GATE_NAMES = [
    "batched_training_3x", "generation_feature_2x",
    "generation_bit_identical", "equivalence_1e6",
    "serve_throughput_3x", "serve_warm_cache_10x", "serve_equivalence_1e6",
    "serve_serial_bit_identical", "serve_overload_sheds",
    "obs_tracing_off_overhead_2pct", "obs_flight_bounded", "obs_slo_check",
    "obs_lockwatch_off_overhead_2pct", "obs_lockwatch_clean",
    "fleet_scaling_2_5x", "fleet_chaos_zero_dropped",
    "fleet_chaos_recovers", "fleet_shared_tier_hits",
    "trace_speedup_2x", "trace_equivalence_1e6",
    "trace_serial_bit_identical", "trace_fallback_on_miss",
]


class TestGateTable:
    def test_holds_exactly_the_contract_gates(self):
        assert list(bench.GATES) == GATE_NAMES

    def test_every_gate_reads_registered_suites(self):
        for gate, (suites, _) in bench.GATES.items():
            assert suites and set(suites) <= set(bench.SUITES), gate

    def test_gate_evaluation_flags_failures(self):
        gates = bench.evaluate_gates(
            {"fleet.chaos": {"dropped": 3, "recovered": False}})
        assert gates == {"fleet_chaos_zero_dropped": False,
                         "fleet_chaos_recovers": False}

    def test_gate_absent_unless_all_its_suites_ran(self):
        equiv = {"max_diff": 0.0}
        assert bench.evaluate_gates({"trace.equivalence": equiv}) == {}
        gates = bench.evaluate_gates({
            "trace.equivalence": equiv,
            "trace.speedup": {"speedup": 1.9, "max_diff": 0.0}})
        assert gates == {"trace_speedup_2x": False,
                         "trace_equivalence_1e6": True}


class TestSelect:
    def test_no_names_selects_every_suite_in_order(self):
        assert bench.select() == list(bench.SUITES)

    def test_groups_and_suites_expand_in_registry_order(self):
        assert bench.select(["trace.serial", "fleet"]) == [
            "fleet.scaling", "fleet.chaos", "fleet.shared", "trace.serial"]

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="nope"):
            bench.select(["nope"])


class TestParser:
    def test_suite_defaults_to_every_suite(self):
        args = build_parser().parse_args(["bench"])
        assert args.suite is None and args.scale == 1.0 and not args.check

    def test_suite_takes_groups_and_group_suites(self):
        args = build_parser().parse_args(
            ["bench", "--suite", "fleet.chaos", "perf", "--suite", "obs"])
        assert args.suite == ["fleet.chaos", "perf", "obs"]

    def test_unknown_suite_exits_2_listing_choices(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["bench", "--suite", "fleet.nope"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "fleet.chaos" in err and "'trace'" in err

    @pytest.mark.parametrize("command", ["serve-bench", "fleet-bench",
                                         "obs-bench", "trace-bench"])
    def test_per_group_subcommands_are_gone(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2


class TestBenchGates:
    def test_chaos_suite_gates_pass(self, tmp_path, capsys):
        out = tmp_path / "BENCH_perf.json"
        assert main(["bench", "--suite", "fleet.chaos", "--scale", "0.7",
                     "--out", str(out), "--check"]) == 0
        doc = json.loads(out.read_text())
        assert list(doc["suites"]) == ["fleet.chaos"]
        assert doc["gates"] == {"fleet_chaos_zero_dropped": True,
                                "fleet_chaos_recovers": True}
        assert "fleet.chaos" in capsys.readouterr().out

    def test_latency_quantiles_are_exact_client_samples(self):
        lat = bench.run(["serve.latency"], scale=0.1)["suites"][
            "serve.latency"]
        q = lat["latency_s"]
        # 4 clients x 2 rounds x 4 graphs each, one sample per request
        assert q["samples"] == 32
        assert 0.0 < q["p50"] <= q["p99"]


def test_paired_medians_discard_a_minority_of_stalls():
    calls = iter(range(5))

    def stalls_twice() -> None:
        time.sleep(0.05 if next(calls) < 2 else 0.001)

    a, b = paired_medians(stalls_twice, lambda: time.sleep(0.002), 5)
    assert a < 0.04 and b >= 0.002


def test_library_packages_import_no_bench_code():
    root = pathlib.Path(bench.__file__).parent.parent
    for pkg in ("perf", "serve", "obs", "fleet"):
        for path in (root / pkg).rglob("*.py"):
            assert path.stem != "bench", path
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom):
                    names = [node.module or ""] + [a.name for a in node.names]
                    assert not any("bench" in n.split(".") for n in names), \
                        path
