#!/bin/sh
# check.sh — static checks plus the race-detector test pass.
#
# The tensor worker pool, the oracle's batched queries, the attack's
# parallelFor, and the sliced learning attack's one-shot prefix evaluation
# (nn.Slice.PrefixForward) all share memory across goroutines; this script
# is the wiring that keeps them honest. The -race pass below includes the
# slice-equivalence property tests (internal/nn/slice_test.go and
# internal/core/slice_equiv_test.go), so the activation cache is checked for
# both data races and bit-exact agreement with the unsliced path in one go.
# Run before sending any change to the kernels or their callers (also
# available as `make race`).
set -eu
cd "$(dirname "$0")/.."

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l ."
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: these files need formatting (run gofmt -w):" >&2
	printf '%s\n' "$UNFORMATTED" >&2
	exit 1
fi

echo "==> dnnlint ./... (pool, determinism, floatcmp, nakedgo, pkgdoc, queryseam, errflow, spanpair, golife invariants)"
go run ./cmd/dnnlint ./...

# Machine-readable lint contract (DESIGN.md §15): a clean tree must emit an
# empty JSON array under -json — this is the record format CI dashboards
# and the -fix/-diff tooling key off, so the shape is pinned here, not just
# the exit code.
echo "==> dnnlint -json contract (clean tree emits [])"
LINT_JSON="$(go run ./cmd/dnnlint -json ./...)"
if [ "$(printf '%s' "$LINT_JSON" | tr -d '[:space:]')" != "[]" ]; then
	echo "dnnlint -json: expected an empty array on a clean tree, got:" >&2
	printf '%s\n' "$LINT_JSON" >&2
	exit 1
fi

echo "==> go build ./..."
go build ./...

# perfbench (the repo benchmark, BENCHMARK.json) is a separate Go module, so
# the root ./... patterns never compile it; vet and test it here so a change
# to an API it reads fails this script instead of the benchmark.
echo "==> perfbench: go vet ./... && go test ./..."
(cd perfbench && go vet ./... && go test ./...)

echo "==> go test -race ./internal/..."
go test -race ./internal/...

# Core-count parity (DESIGN.md §14): the attack builds every oracle batch
# explicitly, in index order, so keys, queries and rounds may not depend on
# how many threads run it. The worker-parity, error-correction, checkpoint,
# zero-channel farm and daemon parity tests, and the fixture that pins every
# outcome (rounds included) of the Table 1, variant, robustness and farm
# cells, run three times at each of three GOMAXPROCS values.
echo "==> core-count parity (GOMAXPROCS=1,2,4; -count=3)"
for PROCS in 1 2 4; do
	GOMAXPROCS=$PROCS go test -count=3 \
		-run 'TestDecryptParallelWorkersMatchSerial|TestErrorCorrectionRepairs|TestCheckpoint|TestFarmZeroChannelIsPassThrough|TestFitTrajectoryFixture|TestDaemonEndToEndParity|TestDaemonSuspendResume' \
		./internal/core ./internal/harness ./internal/service
done

# Robustness smoke (DESIGN.md §11): the oracle-boundary hardening must keep
# the clean path bit-identical to Table 1 and must degrade — never panic —
# under faults. These tests run inside the -race pass above too; re-running
# them by name makes a boundary regression fail with a targeted message.
echo "==> robustness smoke (clean-path identity + fault degradation)"
go test -race -run 'TestRobustness|TestRunBudget|TestRunRetries|TestRunDeclared|TestRunHeavy|TestRunCleanPath' \
	./internal/core ./internal/harness

# Trace smoke (DESIGN.md §12): a Table-1 cell exported as a JSONL trace
# must be a faithful projection of the run — `trace -check` recomputes the
# per-procedure rollup from the raw spans, requires it to match the
# exported breakdown summaries exactly, and requires the attributed time
# to cover the anchors' wall time within tolerance.
echo "==> trace smoke (table1 -trace + trace -check)"
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "$TRACE_TMP"' EXIT
go build -o "$TRACE_TMP/dnnlock" ./cmd/dnnlock
"$TRACE_TMP/dnnlock" table1 -model mlp -keysizes 6 -scale tiny \
	-trace "$TRACE_TMP/trace.jsonl" > /dev/null
"$TRACE_TMP/dnnlock" trace -in "$TRACE_TMP/trace.jsonl" -check > /dev/null

# Farm smoke (DESIGN.md §16): one sweep point over a small heterogeneous
# fleet behind a lossy channel must finish at full fidelity and emit its
# CSV — the channel simulator prices rounds, it must never break the attack.
echo "==> farm smoke (small fleet, lossy channel)"
"$TRACE_TMP/dnnlock" farm -model mlp -bits 6 -scale tiny -devices 64 \
	-rtts 5ms -bws 10 -loss 0.005 -mixes mixed \
	-csv "$TRACE_TMP/farm.csv" > /dev/null
head -n 1 "$TRACE_TMP/farm.csv" | grep -q '^model,key_bits,mix,devices' || {
	echo "farm smoke: CSV header malformed" >&2
	exit 1
}

# Daemon smoke (DESIGN.md §17, OPERATIONS.md): dnnlockd must accept an MLP
# 4-bit job over its HTTP API, run it to completion, and report exactly the
# query count a direct `dnnlock table1` run of the same cell reports — the
# service layer may never change the attack's numbers. The TERM at the end
# also exercises graceful drain: the daemon must exit cleanly.
echo "==> daemon smoke (dnnlockd: submit -> poll -> parity with table1)"
go build -o "$TRACE_TMP/dnnlockd" ./cmd/dnnlockd
"$TRACE_TMP/dnnlockd" -addr 127.0.0.1:0 -workers 1 \
	> "$TRACE_TMP/dnnlockd.out" 2> /dev/null &
DAEMON_PID=$!
trap '[ -n "${DAEMON_PID:-}" ] && kill "$DAEMON_PID" 2>/dev/null; rm -rf "$TRACE_TMP"' EXIT
ADDR=""
for _ in $(seq 1 50); do
	ADDR="$(sed -n 's/^dnnlockd listening on //p' "$TRACE_TMP/dnnlockd.out")"
	[ -n "$ADDR" ] && break
	sleep 0.2
done
[ -n "$ADDR" ] || { echo "daemon smoke: dnnlockd never printed its address" >&2; exit 1; }
SUBMIT="$(curl -fsS -X POST "http://$ADDR/jobs" \
	-d '{"kind":"decrypt","model":"mlp","key_bits":4,"scale":"tiny"}')"
JOB_ID="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id": "\([^"]*\)".*/\1/p' | head -n 1)"
[ -n "$JOB_ID" ] || { echo "daemon smoke: submit returned no job id: $SUBMIT" >&2; exit 1; }
STATE=""
for _ in $(seq 1 150); do
	VIEW="$(curl -fsS "http://$ADDR/jobs/$JOB_ID")"
	STATE="$(printf '%s' "$VIEW" | sed -n 's/.*"state": "\([^"]*\)".*/\1/p' | head -n 1)"
	case "$STATE" in completed|failed|cancelled) break ;; esac
	sleep 0.2
done
[ "$STATE" = "completed" ] || {
	echo "daemon smoke: job ended in state '$STATE': $VIEW" >&2
	exit 1
}
DAEMON_Q="$(printf '%s' "$VIEW" | sed -n 's/.*"queries": \([0-9][0-9]*\).*/\1/p' | head -n 1)"
"$TRACE_TMP/dnnlock" table1 -model mlp -keysizes 4 -scale tiny \
	-csv "$TRACE_TMP/t1.csv" > /dev/null
DIRECT_Q="$(awk -F, 'NR==2{print $13}' "$TRACE_TMP/t1.csv")"
if [ -z "$DAEMON_Q" ] || [ "$DAEMON_Q" != "$DIRECT_Q" ]; then
	echo "daemon smoke: dec_queries mismatch: daemon=$DAEMON_Q direct=$DIRECT_Q" >&2
	exit 1
fi
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID" || { echo "daemon smoke: dnnlockd did not exit cleanly" >&2; exit 1; }
DAEMON_PID=""

# Bench gate (opt-in: DNNLOCK_BENCH=1): run the paper-facing benchmarks and
# diff the fresh numbers against the most recent committed BENCH_*.json via
# bench_compare.sh, which fails on a >10% regression. Off by default — the
# bench suite takes minutes and perf numbers are only meaningful on a quiet
# machine — but perf-sensitive changes should ship with this green.
if [ "${DNNLOCK_BENCH:-0}" = "1" ]; then
	echo "==> bench gate (DNNLOCK_BENCH=1): scripts/bench.sh + strict bench_compare"
	BENCH_COMPARE=0 sh scripts/bench.sh
	BENCH_COMPARE_STRICT=1 sh scripts/bench_compare.sh
fi

echo "OK"
