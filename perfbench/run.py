"""Benchmark entry point for the DNN-occu predictor.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload flush-window --seed 1 \
        --seconds 40 --trace 0

``BENCHMARK.json`` lists the workloads the benchmark is judged on.
``sched-serial`` runs too but is not among them: each of its lone
requests sleeps out the batcher's 2 ms deadline with the process idle,
so every request pays a wake-up whose latency the host sets.  On a
shared host of two cores, ten runs of the same code spread by 0.37 of
the median in latency and 0.44 in throughput between quartiles (five
runs pinned to one CPU: 0.23 and 0.36).  Its traced run still checks
that the request stages sum to the latency.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
Latency median, latency tail and throughput are computed per round (one
replay of the request list; training is one round) and reported as the
median over the rounds.

``--trace 1`` splits the time in two halves over the same inputs, each
on a fresh model and service: an untraced half, then a half with
:class:`probe.Probe` wrapping every layer.  It reports the per-layer
metrics of the traced half and, on stdout, the traced-minus-untraced
difference as tracing overhead.  Per-layer metrics of layers the
workload never reaches read 0 in the result and are listed under
``not_exercised`` on the line before it.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  Lines before it carry the run metadata and
the program's exact counts.  The full record of the run, spans included,
is written to ``.perfbench_out/`` at exit.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import resource
import sys
from pathlib import Path
from statistics import median

# One BLAS thread: on a host of few cores, a second one spinning beside
# the batcher thread measures the OS scheduler, not the program.  Set
# before numpy loads; the thread count is recorded with every run.
os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _pin_to_one_cpu() -> None:
    """Run this process, and the threads it starts later, on one CPU.

    The service's caller and batcher threads hand the GIL and every
    ticket to each other.  On two virtual CPUs each hand-off is a
    cross-CPU wake-up whose cost the hypervisor sets: flush-window ran
    20-37 requests/s unpinned against 33-47 pinned in alternating 15 s
    runs, while single-threaded training held 40-50 beside both.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["sched-serial", "flush-window", "train-epoch"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path; None if absent."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != src / "repro":
        return None
    return repro


def _openblas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if unknown."""
    import ctypes

    import numpy
    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _metadata(args) -> dict:
    import numpy
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "openblas_threads": _openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _half(workload, seed: int, seconds: float, probe=None):
    """Set-up, timed window and answer check on fresh program objects."""
    workload.setup(seed)
    window = workload.run(seconds, probe)
    rss = _peak_rss_mb()
    workload.close()
    failed = workload.check(window)
    return median(workload.setup_times), window, failed, rss


def _e2e(setup_s, window, failed, rss) -> tuple[dict, dict]:
    """End-to-end metrics; the timings are medians over the rounds."""
    from workloads import tail_stat
    rounds = window.per_round
    tails = [tail_stat(lat) for lat, _, _ in rounds]
    attempted = len(window.answers) or len(window.latencies)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_ms": 1e3 * median(median(lat) for lat, _, _ in rounds),
        "latency_tail_ms": 1e3 * median(t for t, _, _ in tails),
        "throughput_per_s": median(n / s for _, n, s in rounds),
        "ok_frac": (attempted - failed) / attempted,
        "peak_rss_mb": rss,
    }
    detail = {"tail_percentile": round(min(p for _, p, _ in tails), 3),
              "latency_samples": min(n for _, _, n in tails),
              "units": window.units, "window_s": window.elapsed,
              "rounds": window.rounds, "attempted": attempted,
              "failed": failed}
    return metrics, detail


UNITS = {"setup_s": "s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "throughput_per_s": "1/s", "ok_frac": "frac", "peak_rss_mb": "MB"}


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2
    if _import_program() is None:
        print(f"perfbench: no repro package under {ROOT / 'src'}; run "
              f"from the root of a checkout", file=sys.stderr)
        return 2
    _pin_to_one_cpu()
    from probe import MOVES, Probe
    from workloads import WORKLOADS

    record = {"meta": _metadata(args)}
    workload = WORKLOADS[args.workload]()
    workload.prepare(args.seed, args.seconds)
    probe = None
    if args.trace:
        plain = _e2e(*_half(workload, args.seed, args.seconds / 2))
        probe = Probe()
        setup_s, window, failed, rss = _half(workload, args.seed,
                                             args.seconds / 2, probe)
        traced = _e2e(setup_s, window, failed, rss)
        attempted = plain[1]["attempted"] + traced[1]["attempted"]
        failed = plain[1]["failed"] + traced[1]["failed"]
        record["untraced"], record["traced"] = plain, traced
        record["tracing_overhead"] = {
            k: traced[0][k] - plain[0][k]
            for k in ("latency_p50_ms", "latency_tail_ms",
                      "throughput_per_s")}
        if args.workload == "sched-serial":
            stages = probe.stage_sums(dict(enumerate(window.latencies)))
            record["stage_sum"] = stages
            if abs(stages["ratio"] - 1.0) > 0.1:
                print(f"perfbench: request stages sum to "
                      f"{stages['ratio']:.2f} of the request latency; the "
                      f"trace misses a stage", file=sys.stderr)
        layers = probe.layer_metrics(window.counts.get("window", {}),
                                     window.start)
        record["layers"] = layers
        record["moves"] = MOVES
        # The result line must carry every per-layer metric as a number;
        # a layer the workload never reached reads 0 there and is named
        # in ``not_exercised`` on the line before it.
        record["not_exercised"] = sorted(k for k, v in layers.items()
                                         if v is None)
        metrics = {k: {"value": 0.0 if v is None else v,
                       "unit": _layer_unit(k)}
                   for k, v in layers.items()}
    else:
        setup_s, window, failed, rss = _half(workload, args.seed,
                                             args.seconds)
        e2e, detail = _e2e(setup_s, window, failed, rss)
        record["detail"] = detail
        record["setup_samples_s"] = workload.setup_times
        record["latencies_ms"] = [1e3 * x for x in window.latencies]
        attempted = detail["attempted"]
        metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in e2e.items()}
    record["counts"] = window.counts

    summary = {k: v for k, v in record.items()
               if k not in ("moves", "layers", "latencies_ms",
                            "setup_samples_s")}
    print(json.dumps(summary, sort_keys=True, default=str))
    OUT_DIR.mkdir(exist_ok=True)
    if probe is not None:
        record["spans"] = probe.span_records()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, default=str))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def _layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_frac"):
        return "frac"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
