"""Shared helpers for the perf micro-benchmarks.

These are *component* benchmarks (encode / collate / batched forward /
cache round-trip) under pytest-benchmark.  The end-to-end perf gates live
in ``repro bench`` (:mod:`repro.bench`), which run_all.sh invokes
with ``--check``; the numbers here are for profiling regressions at a
finer grain than the gates.
"""

from __future__ import annotations

import os

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))


def report(name: str, lines: list[str]) -> None:
    """Persist a result table to benchmarks/results/ (same layout as the
    paper-figure benchmarks one directory up)."""
    out_dir = os.path.join(os.path.dirname(__file__), os.pardir, "results")
    os.makedirs(out_dir, exist_ok=True)
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out_dir, f"{name}.txt"), "w") as fh:
        fh.write(text)
    print(f"\n=== {name} ===\n{text}")
