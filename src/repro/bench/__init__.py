"""repro.bench: every pass/fail benchmark gate behind ``repro bench``.

One runner over one ordered suite registry and one gate table (see
docs/performance.md).  A suite is named ``group.suite``; the groups are

* :mod:`repro.bench.perf` — encoding, batched training, generation;
* :mod:`repro.bench.serve` — the online prediction service;
* :mod:`repro.bench.obs` — what tracing and the lock sanitizer cost;
* :mod:`repro.bench.fleet` — multi-worker scaling, chaos, shared tier;
* :mod:`repro.bench.trace` — the trace-and-replay compiled executor.

Each suite is a ``bench_*(scale) -> dict`` function plus a one-line
summary of its result.  A gate reads one or more suites and is
evaluated only when all of them ran, so ``repro bench --suite
fleet.chaos --check`` judges exactly the two chaos gates.  The library
packages import nothing from here.
"""

from __future__ import annotations

import json
import os

from ..gpu import SIMULATOR_VERSION
from ..perf.batching import clear_spd_memo
from . import fleet, obs, perf, serve, trace

__all__ = ["BENCH_VERSION", "SUITES", "GROUPS", "GATES", "select", "run",
           "evaluate_gates", "format_summary", "save"]

#: 2: one document for every group, suites keyed ``group.suite``
BENCH_VERSION = 2

#: ``group.suite`` -> (suite function, summary line), in run order
SUITES = {
    "perf.encode": (perf.bench_encode, perf.encode_line),
    "perf.train": (perf.bench_train, perf.train_line),
    "perf.generate": (perf.bench_generate, perf.generate_line),
    "serve.throughput": (serve.bench_throughput, serve.throughput_line),
    "serve.warm_cache": (serve.bench_warm_cache, serve.warm_cache_line),
    "serve.latency": (serve.bench_latency, serve.latency_line),
    "serve.equivalence": (serve.bench_equivalence, serve.equivalence_line),
    "serve.overload": (serve.bench_overload, serve.overload_line),
    "obs.tracing_overhead": (obs.bench_tracing_overhead,
                             obs.tracing_overhead_line),
    "obs.flight": (obs.bench_flight, obs.flight_line),
    "obs.slo": (obs.bench_slo, obs.slo_line),
    "obs.lockwatch": (obs.bench_lockwatch, obs.lockwatch_line),
    "fleet.scaling": (fleet.bench_scaling, fleet.scaling_line),
    "fleet.chaos": (fleet.bench_chaos, fleet.chaos_line),
    "fleet.shared": (fleet.bench_shared, fleet.shared_line),
    "trace.speedup": (trace.bench_speedup, trace.speedup_line),
    "trace.equivalence": (trace.bench_equivalence, trace.equivalence_line),
    "trace.serial": (trace.bench_serial, trace.serial_line),
    "trace.fallback": (trace.bench_fallback, trace.fallback_line),
}
GROUPS = tuple(dict.fromkeys(name.split(".")[0] for name in SUITES))

#: gate -> (suites it reads, predicate over those suites' results, in
#: that order).  Names and thresholds are the acceptance contract.
GATES = {
    "batched_training_3x": (
        ("perf.train",), lambda t: t["speedup"] >= 3.0),
    "generation_feature_2x": (
        ("perf.generate",), lambda g: g["feature_vs_serial_speedup"] >= 2.0),
    "generation_bit_identical": (
        ("perf.generate",), lambda g: g["bit_identical"]),
    "equivalence_1e6": (
        ("perf.train",),
        lambda t: t["max_fwd_diff"] <= 1e-6 and t["max_grad_diff"] <= 1e-6),
    "serve_throughput_3x": (
        ("serve.throughput",), lambda t: t["speedup"] >= 3.0),
    "serve_warm_cache_10x": (
        ("serve.warm_cache",), lambda w: w["speedup"] >= 10.0),
    "serve_equivalence_1e6": (
        ("serve.equivalence",),
        lambda e: e["serial_max_diff"] <= 1e-6 and e["bulk_max_diff"] <= 1e-6),
    "serve_serial_bit_identical": (
        ("serve.equivalence",), lambda e: e["serial_bit_identical"]),
    "serve_overload_sheds": (
        ("serve.overload",), lambda o: o["shed"] > 0 and o["all_resolved"]),
    "obs_tracing_off_overhead_2pct": (
        ("obs.tracing_overhead",),
        lambda o: o["off_overhead"] <= obs.OVERHEAD_BUDGET),
    "obs_flight_bounded": (
        ("obs.flight",), lambda f: f["bounded"] and f["complete"]),
    "obs_slo_check": (
        ("obs.slo",), lambda s: s["healthy_ok"] and s["degraded_detected"]),
    "obs_lockwatch_off_overhead_2pct": (
        ("obs.lockwatch",),
        lambda lw: lw["factory_is_plain_lock"]
        and lw["off_overhead"] <= obs.OVERHEAD_BUDGET),
    "obs_lockwatch_clean": (
        ("obs.lockwatch",),
        lambda lw: lw["acquisitions"] > 0 and not lw["inversions"]
        and not lw["novel_edges"]),
    "fleet_scaling_2_5x": (
        ("fleet.scaling",), lambda s: s["modeled_speedup_at_4"] >= 2.5),
    "fleet_chaos_zero_dropped": (
        ("fleet.chaos",), lambda c: c["dropped"] == 0),
    "fleet_chaos_recovers": (
        ("fleet.chaos",), lambda c: c["recovered"]),
    "fleet_shared_tier_hits": (
        ("fleet.shared",),
        lambda s: s["bit_identical"] and s["second_forwards"] == 0
        and s["second_shared_hits"] == s["graphs"]),
    "trace_speedup_2x": (
        ("trace.speedup",), lambda s: s["speedup"] >= 2.0),
    "trace_equivalence_1e6": (
        ("trace.speedup", "trace.equivalence"),
        lambda s, e: s["max_diff"] <= 1e-6 and e["max_diff"] <= 1e-6),
    "trace_serial_bit_identical": (
        ("trace.serial",), lambda s: s["bit_identical"]),
    "trace_fallback_on_miss": (
        ("trace.fallback",),
        lambda f: f["miss_raised"] and f["fallback_max_diff"] <= 1e-6),
}


def select(names=()) -> list[str]:
    """Expand group and ``group.suite`` names into registry order.

    No names selects every suite; an unknown name raises ``ValueError``.
    """
    unknown = [n for n in names if n not in GROUPS and n not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {unknown}")
    return [s for s in SUITES
            if not names or s in names or s.split(".")[0] in names]


def run(names=(), scale: float = 1.0) -> dict:
    """Run the suites ``names`` selects; returns the ``BENCH_perf.json``
    document (``meta``, ``suites`` keyed ``group.suite``, ``gates``)."""
    results = {}
    for name in select(names):
        clear_spd_memo()  # a suite measures its own warm-up, not a prior's
        results[name] = SUITES[name][0](scale)
    return {
        "meta": {
            "bench_version": BENCH_VERSION,
            "simulator_version": SIMULATOR_VERSION,
            "cpu_count": os.cpu_count(),
            "scale": scale,
        },
        "suites": results,
        "gates": evaluate_gates(results),
    }


def evaluate_gates(results: dict) -> dict:
    """Every gate whose suites are all in ``results``, in table order."""
    return {gate: bool(pred(*(results[s] for s in suites)))
            for gate, (suites, pred) in GATES.items()
            if all(s in results for s in suites)}


def format_summary(doc: dict) -> str:
    """One line per suite that ran, then the gates line."""
    lines = [f"{name:<20s}: {SUITES[name][1](result)}"
             for name, result in doc["suites"].items()]
    lines.append(f"{'gates':<20s}: " + "  ".join(
        f"{k}={'PASS' if v else 'FAIL'}" for k, v in doc["gates"].items()))
    return "\n".join(lines)


def save(doc: dict, path: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
