#!/bin/sh
# bench.sh — run the paper-facing benchmarks (Table 1, Figure 3) plus the
# tensor kernel micro-benchmarks with -benchmem, and emit the parsed results
# as BENCH_<date>.json in the repo root so perf changes leave a tracked,
# diffable record.
#
# Usage: scripts/bench.sh [extra go-test args...]
#   BENCH_PATTERN   override the -bench regexp
#   BENCH_TIME      override -benchtime (default 1x for the heavy table
#                   benches; kernels use the go default)
set -eu
cd "$(dirname "$0")/.."

# BenchmarkDecryptTracer{Off,On} ride along so the BENCH json always
# records the observability layer's overhead next to the numbers it could
# perturb (DESIGN.md §12), the planner ablations so the oracle_rounds
# trade-offs (DESIGN.md §14) stay tracked next to the default path, the
# float32/float64 training ablations so what the float32 tier buys over the
# exact fit (DESIGN.md §13) stays measured, and BenchmarkFarm* so the
# predicted attack wall-clock on the simulated device farm
# (farm_wallclock_s, DESIGN.md §16) is gated like oracle_rounds.
PATTERN="${BENCH_PATTERN:-BenchmarkTable1|BenchmarkFigure3|BenchmarkDecryptTracer|BenchmarkFarm|BenchmarkAblation(Default|NoPlanner|Multisect4|ProbeCache|Float32Training|Float64Training)\$}"
BTIME="${BENCH_TIME:-1x}"
DATE="$(date +%Y-%m-%d)"
OUT="BENCH_${DATE}.json"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

# Metadata that makes bench_compare diffs attributable: the effective
# parallelism knobs and the Table 1 training precision (bench_test.go
# defaults to the float32 raw-speed tier; DNNLOCK_TRAIN_PRECISION=float64
# pins the exact reference tier).
MAXPROCS="${GOMAXPROCS:-$(getconf _NPROCESSORS_ONLN 2>/dev/null || echo unknown)}"
PROCS="${DNNLOCK_PROCS:-default}"
PRECISION="${DNNLOCK_TRAIN_PRECISION:-float32}"

echo "==> go test -bench '$PATTERN' -benchmem -benchtime $BTIME ." >&2
go test -run 'XXX' -bench "$PATTERN" -benchmem -benchtime "$BTIME" "$@" . | tee "$RAW" >&2

echo "==> go test ./internal/tensor -bench . -benchmem" >&2
go test -run 'XXX' -bench . -benchmem ./internal/tensor | tee -a "$RAW" >&2

awk -v date="$DATE" -v gover="$(go version | awk '{print $3}')" \
    -v maxprocs="$MAXPROCS" -v procs="$PROCS" -v precision="$PRECISION" '
BEGIN { n = 0 }
/^cpu:/ { sub(/^cpu: /, ""); cpu = $0 }
/^Benchmark/ {
    name = $1; iters = $2
    metrics = ""
    for (i = 3; i + 1 <= NF; i += 2) {
        unit = $(i + 1)
        gsub(/"/, "", unit)
        metrics = metrics sprintf("%s\"%s\": %s", (metrics == "" ? "" : ", "), unit, $i)
    }
    lines[n++] = sprintf("    {\"name\": \"%s\", \"iterations\": %s, %s}", name, iters, metrics)
}
END {
    printf "{\n  \"date\": \"%s\",\n  \"go\": \"%s\",\n  \"cpu\": \"%s\",\n", date, gover, cpu
    printf "  \"gomaxprocs\": \"%s\",\n  \"dnnlock_procs\": \"%s\",\n  \"train_precision\": \"%s\",\n", maxprocs, procs, precision
    printf "  \"results\": [\n"
    for (i = 0; i < n; i++) printf "%s%s\n", lines[i], (i < n - 1 ? "," : "")
    printf "  ]\n}\n"
}' "$RAW" > "$OUT"

echo "wrote $OUT" >&2

# Diff against the most recent committed baseline (BENCH_COMPARE=0 skips).
if [ "${BENCH_COMPARE:-1}" != "0" ]; then
    sh scripts/bench_compare.sh "$OUT" >&2 || echo "bench_compare failed" >&2
fi
