#!/usr/bin/env bash
# Regenerate everything: install, test, reproduce all tables/figures.
#
#   bash scripts/run_all.sh [BENCH_SCALE]
#
# BENCH_SCALE (default 1) scales dataset sizes / training epochs in the
# benchmark harness; 2-3 gives tighter reproduction numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-1}"

echo "== install (offline-friendly editable) =="
pip install -e . 2>/dev/null || python setup.py develop

echo "== syntax check (fail fast on any unparseable module) =="
python -m compileall -q src

echo "== static analysis: self-lint + concurrency + zoo + registries =="
python -m repro lint --self --concurrency
python -m repro lint --zoo --registries

echo "== unit / integration / property tests =="
python -m pytest tests/ -q | tee test_output.txt

echo "== lock sanitizer: suite under LockWatch (zero inversions gate) =="
REPRO_LOCKWATCH=1 python -m pytest tests/ -q

echo "== observability smoke: trace round-trip =="
OBS_TRACE="$(mktemp /tmp/repro_trace.XXXXXX.json)"
python -m repro profile --model lenet --batch 16 --trace-out "$OBS_TRACE"
python -m repro obs "$OBS_TRACE"
rm -f "$OBS_TRACE"

echo "== serving SLOs: request-scoped trace + error-budget check =="
SLO_TRACE="$(mktemp /tmp/repro_slo.XXXXXX.json)"
python -m repro slo --requests 60 --out "$SLO_TRACE" --check
python -m repro obs "$SLO_TRACE" --requests 5
rm -f "$SLO_TRACE"

echo "== resilience smoke: chaos sweep must finish with zero lost jobs =="
python -m repro chaos --gpus 2 --jobs 6 --fault-rates 0.0 0.25 \
    --gpu-mtbf 200 --checkpoint-interval 10 --fail-on-lost

echo "== fleet chaos smoke: worker kill+hang with zero dropped tickets =="
python -m repro bench --suite fleet.chaos --check

echo "== benchmark gates: every perf / serve / obs / fleet / trace suite, once =="
python -m repro bench --scale "$SCALE" \
    --out benchmarks/results/BENCH_perf.json --check

echo "== reproduce every table and figure (scale=$SCALE) =="
REPRO_BENCH_SCALE="$SCALE" python -m pytest benchmarks/ --benchmark-only \
    | tee bench_output.txt

echo "== assemble the report =="
python benchmarks/collect_results.py
echo "done: see benchmarks/results/REPORT.md"
