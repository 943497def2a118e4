"""Steadiness report: run-to-run spread of every end-to-end metric.

Runs ``perfbench/run.py`` once per seed for each workload, one process
at a time, and prints for every workload and metric the median, the
quartile spread ``(q3 - q1) / median`` and the metric's bound from
``BENCHMARK.json``, so a too-noisy verdict names its metric.  With
``--sets 2`` the seeds run twice and the second median's drift from the
first is printed beside the bound as well.  Every metric, ``setup_s``
included, is held to its bound.

Usage, from the root of a checkout::

    python3 perfbench/steady.py                      # 10 seeds, all workloads
    python3 perfbench/steady.py --workloads flush-window --seeds 5
    python3 perfbench/steady.py --first-seed 1001    # validation seeds

Tuning uses seeds 1..10; a claim is validated on a disjoint range such
as 1001..1010.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parent.parent


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=600, check=True).stdout.splitlines()
    result = json.loads(out[-1])
    result["record"] = json.loads(out[-2])
    result["wall_s"] = time.monotonic() - t0
    return result


def spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (0 for a constant)."""
    q1, _, q3 = quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


def _worse(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    if not first:
        return 0.0
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", nargs="+", default=names, choices=names)
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--sets", type=int, default=1, choices=[1, 2])
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = p.parse_args(argv)

    bounds = {m["name"]: m for m in spec["end_to_end"]}
    report = {}
    worst = 0.0
    for workload in args.workloads:
        sets = []
        for _ in range(args.sets):
            runs = [_run(workload, seed, args.seconds, 0)
                    for seed in range(args.first_seed,
                                      args.first_seed + args.seeds)]
            sets.append(runs)
            for run in runs:
                d = run["record"]["detail"]
                print(f"{workload} seed {run['record']['meta']['seed']}: "
                      f"correct={run['correct']} "
                      f"tail=p{d['tail_percentile']} of "
                      f"{d['latency_samples']} samples, "
                      f"{d['units']} units in {d['window_s']:.2f} s, "
                      f"{run['wall_s']:.1f} s wall",
                      file=sys.stderr)
        report[workload] = {}
        print(f"\n{workload}")
        print(f"  {'metric':<18}{'median':>12}{'spread':>9}{'bound':>8}"
              f"{'drift':>9}  verdict")
        for name, m in bounds.items():
            meds, spreads = [], []
            for runs in sets:
                values = [r["metrics"][name]["value"] for r in runs]
                meds.append(median(values))
                spreads.append(spread(values))
            drift = _worse(meds[0], meds[-1], m["better"])
            s = max(spreads)
            limit = m["bound"]
            worst = max(worst, s / limit)
            verdict = ("ok" if s < limit / 3 else
                       "above bound/3" if s < limit else "TOO NOISY")
            if drift > limit:
                verdict += "; DRIFT"
            shown = f"{drift:>9.3f}" if len(sets) > 1 else f"{'-':>9}"
            print(f"  {name:<18}{meds[0]:>12.4g}{s:>9.3f}{limit:>8.3f}"
                  f"{shown}  {verdict}")
            report[workload][name] = {"medians": meds, "spreads": spreads,
                                      "bound": limit, "drift": drift}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(report, indent=1))
    print(f"\nworst spread / bound: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
