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

echo "== dataset smoke: a warm cache reproduces the cold dataset through the CLI =="
DATA_DIR="$(mktemp -d /tmp/repro_dataset.XXXXXX)"
for OUT in a b; do
    python -m repro dataset --models lenet rnn --configs-per-model 2 \
        --cache-dir "$DATA_DIR/cache" --out "$DATA_DIR/$OUT.npz"
done
python3 - "$DATA_DIR" <<'PY'
import sys
import numpy as np
from repro.data import load_dataset
cold, warm = (load_dataset(f"{sys.argv[1]}/{name}.npz") for name in "ab")
same = len(cold) == len(warm) > 0 and np.array_equal(cold.labels(), warm.labels())
for a, b in zip(cold, warm):
    for field in ("node_features", "edge_features", "edge_index"):
        same = same and np.array_equal(getattr(a.features, field),
                                       getattr(b.features, field))
if not same:
    sys.exit("dataset smoke: the warm-cache dataset differs from the cold one")
print(f"dataset smoke: {len(warm)} samples identical cold and warm")
PY
rm -rf "$DATA_DIR"

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

echo "== flush-window smoke: 5 s benchmark run with per-layer probe, every answer correct =="
FLUSH_LAST="$(python3 perfbench/run.py --workload flush-window --seed 1 \
    --seconds 5 --trace 1 | tail -n 1)"
case "$FLUSH_LAST" in
    *'"correct": true'*) ;;
    *) echo "flush-window smoke failed: ${FLUSH_LAST:0:200}" >&2; exit 1 ;;
esac
# Queued flushes forward in bucket_by_size chunks, each at most half
# padding; a whole flush padded into one collate reads ~0.45 here.
python3 - <<'PY'
import json, sys
layers = json.load(open(".perfbench_out/flush-window-seed1-trace1.json"))["layers"]
waste = layers.get("perf.batching.pad_waste_frac")
print(f"flush-window pad_waste_frac: {waste}")
if waste is None or waste > 0.25:
    sys.exit("flush-window pad waste above 0.25: is a flush forwarded unbucketed?")
PY

echo "== train-epoch smoke: 5 s benchmark run with per-layer probe, every answer correct =="
TRAIN_LAST="$(python3 perfbench/run.py --workload train-epoch --seed 1 \
    --seconds 5 --trace 1 | tail -n 1)"
case "$TRAIN_LAST" in
    *'"correct": true'*) ;;
    *) echo "train-epoch smoke failed: ${TRAIN_LAST:0:200}" >&2; exit 1 ;;
esac

echo "== benchmark gates: every perf / serve / obs / fleet / trace suite, once =="
python -m repro bench --scale "$SCALE" \
    --out benchmarks/results/BENCH_perf.json --check

echo "== reproduce every table and figure (scale=$SCALE) =="
REPRO_BENCH_SCALE="$SCALE" python -m pytest benchmarks/ --benchmark-only \
    | tee bench_output.txt

echo "== assemble the report =="
python benchmarks/collect_results.py
echo "done: see benchmarks/results/REPORT.md"
