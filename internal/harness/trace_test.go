package harness

import (
	"bytes"
	"testing"
	"time"

	"dnnlock/internal/core"
	"dnnlock/internal/farm"
	"dnnlock/internal/metrics"
	"dnnlock/internal/obs"
)

// TestRunTable1Traced runs one Table-1 cell with a sink-backed tracer and
// checks the exported trace: a `cell` span parents both attack roots, both
// are anchors, and the per-procedure rollup of the decryption subtree
// equals the row's QueriesByProc and RoundsByProc key for key: the trace
// is a view of the attack's own ledger.
func TestRunTable1Traced(t *testing.T) {
	sc := TinyScale()
	sc.KeySizes = map[string][]int{"mlp": {6}}
	var sink bytes.Buffer
	tr := obs.New(obs.WithSink(&sink))
	sc.AttackCfg.Tracer = tr
	rows, err := RunTable1(sc, []string{"mlp"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := obs.ReadTrace(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	if err := trace.Check(0.5); err != nil {
		t.Fatalf("trace self-check: %v", err)
	}

	var cell, attack, mono int
	var cellID, attackID uint64
	for _, s := range trace.Spans {
		switch s.Name {
		case "cell":
			cell++
			cellID = s.ID
		case "attack":
			attack++
			attackID = s.ID
		case "monolithic":
			mono++
		}
	}
	if cell != 1 || attack != 1 || mono != 1 {
		t.Fatalf("span census cell=%d attack=%d monolithic=%d, want 1 each", cell, attack, mono)
	}
	for _, s := range trace.Spans {
		if s.Name == "attack" || s.Name == "monolithic" {
			if s.Parent != cellID {
				t.Fatalf("%s span parented to %d, not the cell span %d", s.Name, s.Parent, cellID)
			}
			if !s.Anchor {
				t.Fatalf("%s span is not marked as an anchor", s.Name)
			}
		}
	}
	if n := len(trace.Anchors()); n != 2 {
		t.Fatalf("trace has %d anchors, want 2 (attack and monolithic)", n)
	}

	r := rows[0]
	_, queries, rounds, _ := trace.RollupFromSpans(attackID)
	assertSameCounts(t, "queries", queries, r.QueriesByProc)
	assertSameCounts(t, "rounds", rounds, r.RoundsByProc)
	// The final equivalence check's queries are deliberately unattributed,
	// so the attributed total may undershoot the row's but never exceed it;
	// multi-point probes share round-trips, so rounds stay below queries.
	var q, n int64
	for _, p := range metrics.AllProcedures {
		q += queries[string(p)]
		n += rounds[string(p)]
	}
	if q <= 0 || q > r.Decryption.Queries || n <= 0 || n >= q {
		t.Fatalf("attack rollup counted %d queries in %d rounds, row total is %d queries",
			q, n, r.Decryption.Queries)
	}
	for _, s := range trace.Anchors() {
		if s.Name != "monolithic" {
			continue
		}
		if _, mq, _, _ := trace.RollupFromSpans(s.ID); mq[string(metrics.ProcLearningAttack)] != r.Monolithic.Queries {
			t.Fatalf("monolithic rollup %v, row total is %d queries", mq, r.Monolithic.Queries)
		}
	}
}

// TestFarmTraceSimMatchesResult runs the MLP-8 cell behind farm-serial's
// lossy mixed fleet under a sink-backed tracer: the per-procedure simulated
// channel time rolled up from the exported attack subtree must equal the
// Result's SimByProc exactly, key for key, and likewise its queries and
// rounds.
func TestFarmTraceSimMatchesResult(t *testing.T) {
	c, err := PrepareCell("mlp", 8, TinyScale(), nil)
	if err != nil {
		t.Fatal(err)
	}
	var sink bytes.Buffer
	tr := obs.New(obs.WithSink(&sink))
	cfg := c.DecryptConfig()
	cfg.Tracer = tr
	orc, cfg, err := c.FarmOracle("mixed", 1000,
		farm.Channel{RTT: 20 * time.Millisecond, Bandwidth: 10e6 / 8, Loss: 0.01}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.Run(c.WhiteBox(), c.Spec(), orc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := obs.ReadTrace(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("reading trace: %v", err)
	}
	anchors := trace.Anchors()
	if len(anchors) != 1 {
		t.Fatalf("trace has %d anchors, want 1", len(anchors))
	}
	_, queries, rounds, sim := trace.RollupFromSpans(anchors[0].ID)
	if len(res.SimByProc) == 0 {
		t.Fatal("farm run reports no simulated time per procedure")
	}
	simNS := make(map[metrics.Procedure]int64, len(res.SimByProc))
	for _, p := range metrics.AllProcedures {
		if d, ok := res.SimByProc[p]; ok {
			simNS[p] = int64(d)
		}
	}
	assertSameCounts(t, "sim_ns", sim, simNS)
	assertSameCounts(t, "queries", queries, res.QueriesByProc)
	assertSameCounts(t, "rounds", rounds, res.RoundsByProc)
}

// assertSameCounts requires a trace rollup (keyed by procedure name) and a
// Result map to hold the same procedures with the same values.
func assertSameCounts(t *testing.T, what string, rolled map[string]int64, want map[metrics.Procedure]int64) {
	t.Helper()
	if len(rolled) != len(want) {
		t.Fatalf("%s: trace rollup %v, Result %v", what, rolled, want)
	}
	for p, n := range want {
		if got, ok := rolled[string(p)]; !ok || got != n {
			t.Fatalf("%s: trace rollup %v, Result %v", what, rolled, want)
		}
	}
}
