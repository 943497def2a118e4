"""Observability suites: what telemetry costs the serving path.

Observability that taxes the serving path gets turned off in production,
so the tax is itself gated:

* **tracing_overhead** — warm cache-hit serve latency in three
  configurations: the untraced baseline (flight recorder off,
  observability off — no per-request context at all), the default
  instrumented-but-off path (flight recorder on, tracer uninstalled),
  and fully traced.  The gate holds the default path within 2% of the
  baseline: observability is paid for only when observed.
* **flight** — the flight recorder ring stays bounded at capacity under
  a flood, while still recording every request.
* **slo** — a deterministic healthy serve workload passes
  ``repro slo --check`` (every default objective met), and a synthetic
  degraded window correctly fails it (burn rate > 1), so the gate
  guards both directions.
* **lockwatch** — the ``repro.lint.sanitizer`` factories are free when
  no watch is installed (a factory-made lock within 2% of a raw
  ``threading.Lock``), and an instrumented serve workload records
  acquisitions with zero lock-order inversions and no acquisition edges
  missing from the static C003 graph (see ``docs/concurrency.md``).

The overheads under test are a few microseconds, far below run-to-run
clock drift, so both are read from :func:`~repro.bench.timing.paired_medians`
and the gate takes the best of several passes.
"""

from __future__ import annotations

import threading

from ..gpu import get_device
from ..lint.runner import static_acquisition_graph
from ..lint.sanitizer import (LockWatch, install_watch, new_lock,
                              uninstall_watch)
from ..models import ModelConfig, build_model
from ..obs import observed
from ..obs.context import reset_ids
from ..obs.metrics import MetricsRegistry
from ..obs.slo import SLOEngine, SLOSpec
from ..serve import PredictorService
from .timing import paired_medians
from .workloads import service_model

__all__ = ["bench_tracing_overhead", "tracing_overhead_line", "bench_flight",
           "flight_line", "bench_slo", "slo_line", "bench_lockwatch",
           "lockwatch_line"]

#: tracer-disabled serve latency must stay within 2% of untraced
OVERHEAD_BUDGET = 0.02
_PASSES = 3


def _least_overhead(base, inst, pairs: int) -> tuple[float, float]:
    """The (baseline, instrumented) medians of the pass with least overhead."""
    return min((paired_medians(base, inst, pairs) for _ in range(_PASSES)),
               key=lambda bi: bi[1] / bi[0])


def bench_tracing_overhead(scale: float) -> dict:
    """Warm cache-hit predict cost: baseline vs flight-on vs traced.

    The traced configuration is measured in one extra pass against its
    own in-pass baseline (reported, not gated).
    """
    device = get_device("A100")
    model = service_model()
    graph = build_model("alexnet", ModelConfig(batch_size=16))
    pairs = max(300, int(round(700 * scale)))

    with PredictorService(model, device, flight_capacity=0) as base, \
            PredictorService(model, device) as inst:
        base.predict(graph)  # populate the result caches
        inst.predict(graph)
        baseline_s, off_s = _least_overhead(
            lambda: base.predict(graph), lambda: inst.predict(graph), pairs)
        with observed():
            # both configs trace here (observability is global), so the
            # traced cost is read against the untraced baseline median
            _on_base_s, on_s = paired_medians(
                lambda: base.predict(graph), lambda: inst.predict(graph),
                pairs)

    return {
        "pairs": pairs, "passes": _PASSES,
        "baseline_s": baseline_s,
        "tracing_off_s": off_s,
        "tracing_on_s": on_s,
        "baseline_predictions_per_s": 1.0 / baseline_s,
        "tracing_off_predictions_per_s": 1.0 / off_s,
        "tracing_on_predictions_per_s": 1.0 / on_s,
        "off_overhead": off_s / baseline_s - 1.0,
        "on_overhead": on_s / baseline_s - 1.0,
        "overhead_budget": OVERHEAD_BUDGET,
    }


def tracing_overhead_line(o: dict) -> str:
    return (f"baseline {o['baseline_predictions_per_s']:,.0f}/s | "
            f"tracing off {o['tracing_off_predictions_per_s']:,.0f}/s "
            f"({100 * o['off_overhead']:+.2f}%, budget "
            f"{100 * o['overhead_budget']:.0f}%) | on "
            f"{o['tracing_on_predictions_per_s']:,.0f}/s "
            f"({100 * o['on_overhead']:+.2f}%)")


def bench_flight(scale: float) -> dict:
    """Ring-bound invariant: capacity-limited, nothing lost en route."""
    device = get_device("A100")
    model = service_model()
    graph = build_model("lenet", ModelConfig(batch_size=8))
    capacity = 64
    requests = max(200, int(round(400 * scale)))

    with PredictorService(model, device,
                          flight_capacity=capacity) as svc:
        for _ in range(requests):
            svc.predict(graph)
        recorder = svc.flight
        records = recorder.records()

    return {
        "capacity": capacity, "requests": requests,
        "in_ring": len(records),
        "recorded_total": recorder.total,
        "bounded": len(records) == capacity,
        "complete": recorder.total >= requests,
        "newest_is_cache_hit": bool(records)
        and records[-1].cache == "result_hit",
    }


def flight_line(f: dict) -> str:
    return (f"{f['recorded_total']} records through a {f['capacity']}-slot "
            f"ring, {f['in_ring']} retained (bounded: {f['bounded']})")


def bench_slo(scale: float) -> dict:
    """Healthy workload passes the default SLOs; degraded one fails."""
    device = get_device("A100")
    model = service_model()
    graphs = [build_model(n, ModelConfig(batch_size=bs))
              for n in ("lenet", "alexnet", "rnn")
              for bs in (4, 8)]
    requests = max(30, int(round(60 * scale)))

    reset_ids()
    with observed() as (_tracer, registry):
        engine = SLOEngine(registry)
        engine.snapshot(now=0.0)
        with PredictorService(model, device) as svc:
            for i in range(requests):
                svc.predict(graphs[i % len(graphs)])
        engine.snapshot(now=30.0)
        healthy_ok, statuses = engine.check(now=30.0)

    # Degraded direction: a synthetic registry where a third of the
    # requests shed must fail the 5% shed-rate objective.
    bad_registry = MetricsRegistry()
    bad_registry.counter("serve_requests_total").inc(300)
    bad_registry.counter("serve_shed_total").inc(100)
    bad_engine = SLOEngine(bad_registry, specs=(
        SLOSpec(name="serve-shed-rate", kind="ratio", objective=0.05,
                bad_counter="serve_shed_total"),))
    bad_engine.snapshot(now=0.0)
    degraded_ok, degraded = bad_engine.check(now=0.0)

    return {
        "requests": requests,
        "objectives": [s.spec.name for s in statuses],
        "healthy": {s.spec.name: {"value": s.value, "ok": s.ok,
                                  "burn_rate": s.burn_rate}
                    for s in statuses},
        "healthy_ok": healthy_ok,
        "degraded_value": degraded[0].value,
        "degraded_burn_rate": degraded[0].burn_rate,
        "degraded_detected": not degraded_ok,
    }


def slo_line(s: dict) -> str:
    return (f"healthy workload ok={s['healthy_ok']}, degraded shed-rate "
            f"{s['degraded_value']:.2f} detected={s['degraded_detected']} "
            f"(burn {s['degraded_burn_rate']:.1f})")


def bench_lockwatch(scale: float) -> dict:
    """Sanitizer contract: free when off, observant and clean when on.

    * **off** — with no watch installed the ``new_lock`` factory returns
      a plain ``threading.Lock``, so an acquire/release loop through the
      factory-made lock must stay within 2% of a raw one (this guards
      against the factories ever growing an always-on wrapper).
    * **on** — a serve workload under an installed ``LockWatch`` must be
      observed (acquisitions recorded), show zero lock-order inversions,
      and every observed acquisition edge must appear in the static C003
      graph (``repro.lint.static_acquisition_graph``).
    """
    prior = uninstall_watch()
    try:
        plain = threading.Lock()
        factory = new_lock("bench_lockwatch_off")
        samples = max(200, int(round(400 * scale)))
        ops = 200

        def loop(lock) -> None:
            for _ in range(ops):
                lock.acquire()
                lock.release()

        baseline_s, off_s = _least_overhead(
            lambda: loop(plain), lambda: loop(factory), samples)

        watch = LockWatch()
        install_watch(watch)
        try:
            device = get_device("A100")
            model = service_model()
            graphs = [build_model(n, ModelConfig(batch_size=8))
                      for n in ("lenet", "alexnet")]
            requests = max(40, int(round(80 * scale)))
            with PredictorService(model, device) as svc:
                for i in range(requests):
                    svc.predict(graphs[i % len(graphs)])
                    svc.stats()
            inversions = watch.inversions()
            observed_edges = set(watch.edges())
            acquisitions = sum(watch.acquisitions().values())
        finally:
            uninstall_watch()
        static_edges = static_acquisition_graph()
    finally:
        if prior is not None:
            install_watch(prior)

    return {
        "samples": samples, "ops_per_sample": ops, "passes": _PASSES,
        "factory_is_plain_lock": type(factory) is type(plain),
        "baseline_s": baseline_s,
        "factory_off_s": off_s,
        "off_overhead": off_s / baseline_s - 1.0,
        "overhead_budget": OVERHEAD_BUDGET,
        "requests": requests,
        "acquisitions": acquisitions,
        "inversions": [sorted(c) for c in inversions],
        "observed_edges": sorted(map(list, observed_edges)),
        "novel_edges": sorted(map(list,
                                  observed_edges - static_edges)),
    }


def lockwatch_line(lw: dict) -> str:
    return (f"off overhead {100 * lw['off_overhead']:+.2f}% | "
            f"{lw['acquisitions']} acquisitions observed, "
            f"{len(lw['inversions'])} inversions, "
            f"{len(lw['novel_edges'])} novel edges")
