package core

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
	"dnnlock/internal/obs"
)

// tracedRun executes the full attack on a fresh TinyMLP instance locked
// with a fixed seed, optionally under a sink-backed tracer, and returns
// the result plus whatever the tracer exported.
func tracedRun(t *testing.T, traced bool) (*Result, []byte) {
	t.Helper()
	rng := rand.New(rand.NewSource(510))
	net := models.TinyMLP(rng)
	white, spec, orc, key := lockAndOracle(net, hpnn.Config{
		Scheme: hpnn.Negation, KeyBits: 10, Rng: rand.New(rand.NewSource(511)),
	})
	cfg := DefaultConfig()
	cfg.Seed = 512
	var buf bytes.Buffer
	if traced {
		tr := obs.New(obs.WithSink(&buf))
		defer tr.Close()
		cfg.Tracer = tr
	}
	res, err := Run(white, spec, orc, cfg)
	if err != nil {
		t.Fatalf("Run failed: %v", err)
	}
	if fid := res.Key.Fidelity(key); fid != 1 {
		t.Fatalf("fidelity %.3f", fid)
	}
	return res, buf.Bytes()
}

// TestTracedRunBitIdentical pins the observability layer's core promise:
// attaching a tracer observes the attack but never perturbs it. Two runs
// from identical seeds — one with the no-op default, one exporting a full
// detailed trace — must agree bit for bit on every externally visible
// outcome: the recovered key, the total query count, the per-procedure
// query attribution, and each site's origin counts.
func TestTracedRunBitIdentical(t *testing.T) {
	plain, _ := tracedRun(t, false)
	traced, out := tracedRun(t, true)

	if !reflect.DeepEqual(plain.Key, traced.Key) {
		t.Fatalf("keys diverge: %v vs %v", plain.Key, traced.Key)
	}
	if plain.Queries != traced.Queries {
		t.Fatalf("query counts diverge: %d vs %d", plain.Queries, traced.Queries)
	}
	if !reflect.DeepEqual(plain.QueriesByProc, traced.QueriesByProc) {
		t.Fatalf("per-procedure queries diverge: %v vs %v",
			plain.QueriesByProc, traced.QueriesByProc)
	}
	if len(plain.Sites) != len(traced.Sites) {
		t.Fatalf("site report counts diverge: %d vs %d", len(plain.Sites), len(traced.Sites))
	}
	for i := range plain.Sites {
		p, q := plain.Sites[i], traced.Sites[i]
		if p.Site != q.Site || p.Bits != q.Bits || p.Algebraic != q.Algebraic ||
			p.Learned != q.Learned || p.Corrected != q.Corrected {
			t.Fatalf("site %d reports diverge: %+v vs %+v", i, p, q)
		}
	}

	// The traced run must have produced a well-formed trace whose phases
	// cover its anchor.
	tr, err := obs.ReadTrace(bytes.NewReader(out))
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	if len(tr.Spans) == 0 {
		t.Fatal("traced run exported no spans")
	}
	if err := tr.Check(0.5); err != nil {
		t.Fatalf("trace self-check failed: %v", err)
	}
}
