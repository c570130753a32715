#!/bin/sh
# bench_compare.sh — diff a fresh BENCH_<date>.json against the most recent
# *committed* BENCH_*.json and print per-benchmark ns/op, B/op and allocs/op
# deltas, flagging regressions above 10%.
#
# The baseline is read from git (`git show HEAD:BENCH_...`), not the working
# tree: a fresh run on the same day overwrites the baseline file in place,
# and the committed blob is the number a perf change has to beat anyway.
#
# Numbers are only comparable when they were measured under the same
# conditions, so the script first compares the go, cpu, gomaxprocs,
# dnnlock_procs and train_precision header fields of both files and refuses
# to diff when any of them differ (as `perfbench --compare` does).
#
# Usage: scripts/bench_compare.sh [fresh.json] [baseline-name]
#   fresh.json     defaults to the lexicographically newest BENCH_*.json in
#                  the working tree
#   baseline-name  defaults to the newest BENCH_*.json committed at HEAD
#   BENCH_COMPARE_STRICT=1  exit 1 when the headers differ or any >10%
#                           regression is flagged
set -eu
cd "$(dirname "$0")/.."

FRESH="${1:-}"
if [ -z "$FRESH" ]; then
    FRESH="$(ls BENCH_*.json 2>/dev/null | sort | tail -n 1 || true)"
fi
if [ -z "$FRESH" ] || [ ! -f "$FRESH" ]; then
    echo "bench_compare: no fresh BENCH_*.json (run scripts/bench.sh first)" >&2
    exit 1
fi

BASE_NAME="${2:-}"
if [ -z "$BASE_NAME" ]; then
    BASE_NAME="$(git ls-tree --name-only HEAD | grep '^BENCH_.*\.json$' | sort | tail -n 1 || true)"
fi
if [ -z "$BASE_NAME" ]; then
    echo "bench_compare: no committed BENCH_*.json baseline; nothing to compare" >&2
    exit 0
fi

BASE="$(mktemp)"
trap 'rm -f "$BASE"' EXIT
git show "HEAD:$BASE_NAME" > "$BASE"

echo "==> $FRESH vs committed $BASE_NAME"

# header FILE FIELD prints the value of a "FIELD": "value" header line, or
# nothing when the file predates the field.
header() {
    sed -n "s/^  \"$2\": \"\(.*\)\",\$/\1/p" "$1" | head -n 1
}
MISMATCH=0
for FIELD in go cpu gomaxprocs dnnlock_procs train_precision; do
    NEW="$(header "$FRESH" "$FIELD")"
    OLD="$(header "$BASE" "$FIELD")"
    if [ "$NEW" != "$OLD" ]; then
        echo "bench_compare: $FIELD differs: '$NEW' in $FRESH, '$OLD' in $BASE_NAME" >&2
        MISMATCH=1
    fi
done
if [ "$MISMATCH" = "1" ]; then
    echo "bench_compare: refusing to compare runs with different headers; record a baseline under the same conditions (scripts/bench.sh)" >&2
    [ "${BENCH_COMPARE_STRICT:-0}" = "1" ] && exit 1
    exit 0
fi

awk -v strict="${BENCH_COMPARE_STRICT:-0}" '
function metric(line, key,    s) {
    if (match(line, "\"" key "\": [-+0-9.eE]+")) {
        s = substr(line, RSTART, RLENGTH)
        sub(/^.*: /, "", s)
        return s
    }
    return ""
}
function delta(old, new,    pct, tag) {
    if (old == "" || new == "") return "      n/a"
    if (old + 0 == 0) return (new + 0 == 0) ? "    +0.0%" : "     inf%"
    pct = (new - old) / old * 100
    tag = sprintf("%+8.1f%%", pct)
    if (pct > 10) { tag = tag "!"; flagged++ }
    return tag
}
/"name":/ {
    line = $0
    if (!match(line, /"name": "[^"]+"/)) next
    name = substr(line, RSTART + 9, RLENGTH - 10)
    if (NR == FNR) {
        seen[name] = 1
        bns[name] = metric(line, "ns/op")
        bb[name]  = metric(line, "B/op")
        ba[name]  = metric(line, "allocs/op")
        br[name]  = metric(line, "oracle_rounds")
        bw[name]  = metric(line, "farm_wallclock_s")
        next
    }
    ns = metric(line, "ns/op"); bo = metric(line, "B/op"); al = metric(line, "allocs/op")
    rd = metric(line, "oracle_rounds")
    fw = metric(line, "farm_wallclock_s")
    if (!(name in seen)) {
        printf "%-34s %14s ns/op  (new benchmark, no baseline)\n", name, ns
        next
    }
    done[name] = 1
    printf "%-34s ns/op %14s -> %14s %s   B/op %10s -> %10s %s   allocs %8s -> %8s %s", \
        name, bns[name], ns, delta(bns[name], ns), \
        bb[name], bo, delta(bb[name], bo), \
        ba[name], al, delta(ba[name], al)
    # Oracle round-trips are a first-class perf metric: more rounds means a
    # slower attack against any real (latency-bound) locked device, so a
    # >10% increase is flagged exactly like an ns/op regression.
    if (br[name] != "" || rd != "")
        printf "   rounds %8s -> %8s %s", br[name], rd, delta(br[name], rd)
    # The farm simulator prices rounds in predicted attack wall-clock on a
    # real channel, so a >10% increase there is a perf regression too.
    if (bw[name] != "" || fw != "")
        printf "   farm_s %8s -> %8s %s", bw[name], fw, delta(bw[name], fw)
    printf "\n"
}
END {
    for (name in seen) if (!(name in done))
        printf "%-34s dropped (present in baseline only)\n", name
    if (flagged > 0) {
        printf "bench_compare: %d metric(s) regressed by more than 10%% (marked !)\n", flagged
        if (strict + 0) exit 1
    } else {
        print "bench_compare: no >10% regressions"
    }
}' "$BASE" "$FRESH"
