package oracle

// Round-trip accounting under faults (DESIGN.md §16). A round is consumed
// when a request is sent, whether or not a usable response comes back: a
// Flaky drop models a timeout (which costs MORE wall-clock than a success)
// and a device-error return still crossed the channel. These tests pin that
// semantics at every layer of a decorator stack, and pin that drop
// decisions are input-addressed so the schedule survives goroutine
// scheduling and batch coalescing.

import (
	"errors"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/rot"
	"dnnlock/internal/tensor"
)

// TestFlakyRoundsCountDrops is the ISSUE 9 regression test: after N drops
// and M successes, Rounds() must be N+M — every dispatched request cost one
// round-trip — while Queries() remains M (no inference ran on a drop).
func TestFlakyRoundsCountDrops(t *testing.T) {
	inner, _ := newTestOracle(60)
	o := Flaky(inner, 0.5, 61)
	x := []float64{0.3, -0.1, 0.7, 0.2}
	drops, successes := 0, 0
	for i := 0; i < 40; i++ {
		if _, err := o.Query(x); err != nil {
			if !errors.Is(err, ErrTransient) {
				t.Fatalf("drop surfaced as %v, not ErrTransient", err)
			}
			drops++
		} else {
			successes++
		}
	}
	if drops == 0 || successes == 0 {
		t.Fatalf("rate-0.5 schedule produced %d drops / %d successes; test needs both", drops, successes)
	}
	if got, want := o.Rounds(), int64(drops+successes); got != want {
		t.Fatalf("Rounds() = %d after %d drops + %d successes, want %d", got, drops, successes, want)
	}
	if got := o.Queries(); got != int64(successes) {
		t.Fatalf("Queries() = %d, want %d (drops must not count queries)", got, successes)
	}
	if got := inner.Rounds(); got != int64(successes) {
		t.Fatalf("inner.Rounds() = %d, want %d (drops never reached the device)", got, successes)
	}

	// Batch drops cost one round each too.
	xb := tensor.New(3, 4)
	bDrops, bSuccesses := 0, 0
	for i := 0; i < 20; i++ {
		xb.Data[0] = float64(i) // distinct batches, fresh drop decisions
		out, err := o.QueryBatch(xb)
		tensor.PutMatrix(out) // nil on a dropped round; nil-safe
		if err != nil {
			bDrops++
			continue
		}
		bSuccesses++
	}
	if bDrops == 0 || bSuccesses == 0 {
		t.Fatalf("batch schedule produced %d drops / %d successes; test needs both", bDrops, bSuccesses)
	}
	if got, want := o.Rounds(), int64(drops+successes+bDrops+bSuccesses); got != want {
		t.Fatalf("Rounds() = %d after batches, want %d", got, want)
	}
}

// TestDeviceErrorCountsRound pins the other half of the failed-round
// semantics: a request that reaches the device and comes back with an
// error still consumed a round-trip (and a query — the request was
// dispatched to the device).
func TestDeviceErrorCountsRound(t *testing.T) {
	// A provisioned but unbound device fails every Evaluate.
	o := FromDevice(rot.Provision("unbound", hpnn.Key{false, true}, []byte("s")))
	if _, err := o.Query([]float64{1, 2}); err == nil {
		t.Fatal("unbound device should error")
	}
	if got := o.Rounds(); got != 1 {
		t.Fatalf("Rounds() = %d after a device-error Query, want 1", got)
	}
	xb := tensor.New(2, 2)
	out, err := o.QueryBatch(xb)
	tensor.PutMatrix(out) // nil on error; nil-safe
	if err == nil {
		t.Fatal("unbound device should error on QueryBatch")
	}
	if got := o.Rounds(); got != 2 {
		t.Fatalf("Rounds() = %d after a device-error QueryBatch, want 2", got)
	}
}

// TestFlakyInputAddressed pins the determinism contract: the k-th attempt
// of a given input draws the k-th decision for that input, regardless of
// what else is interleaved — the property that keeps the drop schedule
// stable however concurrent callers interleave their calls.
func TestFlakyInputAddressed(t *testing.T) {
	a := []float64{0.1, 0.2, 0.3, 0.4}
	b := []float64{-0.5, 0.6, -0.7, 0.8}
	schedule := func(order [][]float64) map[string][]bool {
		in, _ := newTestOracle(62)
		o := Flaky(in, 0.5, 63)
		got := map[string][]bool{}
		for _, x := range order {
			_, err := o.Query(x)
			key := "a"
			if &x[0] == &b[0] {
				key = "b"
			}
			got[key] = append(got[key], err != nil)
		}
		return got
	}
	s1 := schedule([][]float64{a, a, b, a, b, b, a})
	s2 := schedule([][]float64{b, b, a, b, a, a, a})
	for _, key := range []string{"a", "b"} {
		if len(s1[key]) != len(s2[key]) {
			t.Fatalf("input %s: attempt counts differ", key)
		}
		for i := range s1[key] {
			if s1[key][i] != s2[key][i] {
				t.Fatalf("input %s attempt %d: drop decision depends on interleaving", key, i)
			}
		}
	}
}

// TestStackedResetZeroesRounds audits ResetCounter across a full decorator
// stack: after a reset at the top, both Queries and Rounds must read zero
// from every layer — including Flaky's own dropped-round contribution — so
// per-cell accounting in a sweep can never leak across cells.
func TestStackedResetZeroesRounds(t *testing.T) {
	inner, _ := newTestOracle(64)
	bud := Budgeted(inner, 1_000)
	fl := Flaky(bud, 0.5, 65)
	no := Noisy(fl, 0.01, 66)
	top := Quantized(no, 8)

	x := []float64{0.9, -0.3, 0.5, 0.1}
	drops, successes := 0, 0
	for i := 0; i < 30; i++ {
		if _, err := top.Query(x); err != nil {
			drops++
		} else {
			successes++
		}
	}
	if drops == 0 || successes == 0 {
		t.Fatalf("schedule produced %d drops / %d successes; test needs both", drops, successes)
	}
	if got, want := top.Rounds(), int64(drops+successes); got != want {
		t.Fatalf("stacked Rounds() = %d, want %d", got, want)
	}

	top.ResetCounter()
	layers := map[string]Interface{"quantized": top, "noisy": no, "flaky": fl, "budgeted": bud, "base": inner}
	for name, l := range layers {
		if q := l.Queries(); q != 0 {
			t.Errorf("%s.Queries() = %d after reset, want 0", name, q)
		}
		if r := l.Rounds(); r != 0 {
			t.Errorf("%s.Rounds() = %d after reset, want 0", name, r)
		}
	}

	// The budget, by contrast, must NOT refill on reset. Only the flaky
	// successes reached the budgeted layer, so `successes` of the 1000 are
	// spent; burn the rest directly against it.
	used := int64(successes)
	for i := 0; int64(i) < 1_000-used; i++ {
		if _, err := bud.Query(x); err != nil {
			t.Fatalf("budget exhausted early: %v", err)
		}
	}
	if _, err := bud.Query(x); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("budget refilled by ResetCounter: err = %v", err)
	}
}
