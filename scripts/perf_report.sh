#!/usr/bin/env bash
# Wall-clock perf report: runs the micro_engine hot-path benchmarks — all of
# them, including the BM_ParallelRedo / BM_ParallelAnalysis / BM_ParallelUndo
# thread-scaling curves — and the fig2a end-to-end smoke, and emits
# BENCH_micro.json (google-benchmark JSON) at the repo root — the perf
# trajectory artifact CI uploads per PR.
#
# Usage: scripts/perf_report.sh [build-dir] [output.json]
#   MIN_TIME=0.5 scripts/perf_report.sh     # longer, steadier measurement
#   BASELINE=<other-build-dir> scripts/perf_report.sh  # also record "before"
#
# With BASELINE set, the micro_engine of that build (e.g. the parent
# commit's, with the same bench source) runs too, and its results land in
# the output JSON under "baseline" (context, including num_cpus, plus
# benchmarks), next to this build's own numbers. Without BASELINE the
# output has no "baseline" block.
#
# Requires a build with google-benchmark available (the micro_engine target);
# scripts/check.sh or `cmake --build build` produces one.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD_DIR="${1:-build}"
OUT="${2:-BENCH_micro.json}"
# benchmark >= 1.8 prefers the "0.05x" iteration-multiplier syntax but still
# accepts plain seconds; older versions (1.7 and earlier) only accept
# seconds. Plain seconds keeps the script portable across both.
MIN_TIME="${MIN_TIME:-0.1}"

MICRO="$BUILD_DIR/bench/micro_engine"
if [[ ! -x "$MICRO" ]]; then
  echo "error: $MICRO not found or not executable." >&2
  echo "Build it first (needs google-benchmark):" >&2
  echo "  cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
  exit 1
fi

echo "==== micro_engine (hot-path wall-clock benchmarks) -> $OUT"
"$MICRO" \
  --benchmark_min_time="$MIN_TIME" \
  --benchmark_format=console \
  --benchmark_out_format=json \
  --benchmark_out="$OUT"

if [[ -n "${BASELINE:-}" ]]; then
  BASE_OUT="$(mktemp)"
  trap 'rm -f "$BASE_OUT"' EXIT
  echo
  echo "==== baseline: $BASELINE/bench/micro_engine"
  "$BASELINE/bench/micro_engine" \
    --benchmark_min_time="$MIN_TIME" \
    --benchmark_format=console \
    --benchmark_out_format=json \
    --benchmark_out="$BASE_OUT"
  python3 - "$OUT" "$BASE_OUT" <<'PY'
import json, sys
out, base = sys.argv[1:3]
with open(out) as f:
    report = json.load(f)
with open(base) as f:
    report["baseline"] = json.load(f)
with open(out, "w") as f:
    json.dump(report, f, indent=2)
    f.write("\n")
PY
fi

echo
echo "==== fig2a smoke (end-to-end recovery, simulated time)"
"$BUILD_DIR/bench/fig2a_redo_time" --smoke

echo
echo "Perf report written to $OUT"
