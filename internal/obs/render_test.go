package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"dnnlock/internal/metrics"
)

// buildTrace runs a miniature two-site attack shape through a real tracer
// and parses the result: the shared fixture for the renderer and Check.
func buildTrace(t *testing.T) *Trace {
	t.Helper()
	var buf bytes.Buffer
	tr := New(WithSink(&buf))
	root := tr.Start("attack", String("model", "mlp"))
	root.MarkAnchor()
	for site := 0; site < 2; site++ {
		sp := root.Child("site", Int("site", site))
		for _, proc := range []metrics.Procedure{
			metrics.ProcKeyBitInference,
			metrics.ProcLearningAttack,
			metrics.ProcKeyVectorValidation,
		} {
			ph := sp.Child(string(proc), Proc(proc))
			ph.AddQueries(10)
			ph.AddRounds(4)
			time.Sleep(200 * time.Microsecond)
			ph.End()
		}
		sp.End()
	}
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return trace
}

// TestCheckAgainstLiveRollup is the round-trip contract behind `dnnlock
// trace -check`: a trace produced by the tracer itself must always verify —
// the anchor's rollup adds up every phase under it, and the phases cover
// the root span.
func TestCheckAgainstLiveRollup(t *testing.T) {
	trace := buildTrace(t)
	anchors := trace.Anchors()
	if len(anchors) != 1 {
		t.Fatalf("anchors = %d, want 1", len(anchors))
	}
	times, queries, rounds, sim := trace.RollupFromSpans(anchors[0].ID)
	if got := queries[string(metrics.ProcKeyBitInference)]; got != 20 {
		t.Fatalf("rollup queries = %d, want 20", got)
	}
	if got := rounds[string(metrics.ProcKeyBitInference)]; got != 8 {
		t.Fatalf("rollup rounds = %d, want 8", got)
	}
	if len(times) != 3 || len(queries) != 3 || len(rounds) != 3 || len(sim) != 0 {
		t.Fatalf("rollup procedures: times %v queries %v rounds %v sim %v", times, queries, rounds, sim)
	}
	var phases, rolled int64
	for _, s := range trace.Spans {
		if s.Proc != "" {
			phases += s.DurNS
		}
	}
	for _, ns := range times {
		rolled += ns
	}
	if rolled != phases {
		t.Fatalf("rollup time %d, phase spans %d", rolled, phases)
	}
	if err := trace.Check(0.5); err != nil {
		t.Fatalf("Check failed on a live trace: %v", err)
	}
}

// TestCheckCatchesCorruption mutates a valid trace and confirms Check
// rejects each corruption.
func TestCheckCatchesCorruption(t *testing.T) {
	tamper := func(name string, f func(tr *Trace)) {
		trace := buildTrace(t)
		f(trace)
		if err := trace.Check(0.5); err == nil {
			t.Errorf("%s: corruption not caught", name)
		}
	}
	tamper("no anchors at all", func(tr *Trace) {
		for i := range tr.Spans {
			tr.Spans[i].Anchor = false
		}
	})
	tamper("span duration shrunk below coverage", func(tr *Trace) {
		for i := range tr.Spans {
			if tr.Spans[i].Proc != "" {
				tr.Spans[i].DurNS = 0
			}
		}
	})
	tamper("procedures outlast the anchor", func(tr *Trace) {
		var phases int64
		for _, s := range tr.Spans {
			if s.Proc != "" {
				phases += s.DurNS
			}
		}
		for i := range tr.Spans {
			if tr.Spans[i].Anchor {
				tr.Spans[i].DurNS = phases * 9 / 10
			}
		}
	})
}

// TestBreakdownTable checks the Figure 3 rendering: procedure order, the
// query column, and that shares sum to ~100%.
func TestBreakdownTable(t *testing.T) {
	trace := buildTrace(t)
	var out bytes.Buffer
	trace.BreakdownTable(&out)
	s := out.String()
	for _, proc := range []string{"key_bit_inference", "learning_attack", "key_vector_validation"} {
		if !strings.Contains(s, proc) {
			t.Fatalf("table missing %s:\n%s", proc, s)
		}
	}
	if !strings.Contains(s, "20 queries") {
		t.Fatalf("table missing query counts:\n%s", s)
	}
	if !strings.Contains(s, "8 rounds") {
		t.Fatalf("table missing round counts:\n%s", s)
	}
	// Figure 3 order: inference before learning before validation.
	if strings.Index(s, "key_bit_inference") > strings.Index(s, "learning_attack") {
		t.Fatalf("procedures out of Figure 3 order:\n%s", s)
	}
}

// TestFlame checks the tree view: sibling aggregation (site ×2), depth
// limiting, and indentation.
func TestFlame(t *testing.T) {
	trace := buildTrace(t)
	var out bytes.Buffer
	trace.Flame(&out, 8)
	s := out.String()
	if !strings.Contains(s, "attack") {
		t.Fatalf("flame missing root:\n%s", s)
	}
	if !strings.Contains(s, "site ×2") {
		t.Fatalf("flame did not aggregate sibling sites:\n%s", s)
	}
	if !strings.Contains(s, "  key_bit_inference") {
		t.Fatalf("flame missing indented phase:\n%s", s)
	}

	out.Reset()
	trace.Flame(&out, 1)
	if strings.Contains(out.String(), "site") {
		t.Fatalf("maxDepth=1 still shows children:\n%s", out.String())
	}
}

// TestProcOrder pins extras-after-canonical ordering in rollups.
func TestProcOrder(t *testing.T) {
	got := procOrder(map[string]int64{
		"zeta_extra":        1,
		"alpha_extra":       1,
		"error_correction":  4,
		"learning_attack":   1,
		"key_bit_inference": 1,
	})
	want := []string{"key_bit_inference", "learning_attack", "error_correction", "alpha_extra", "zeta_extra"}
	if len(got) != len(want) {
		t.Fatalf("procOrder = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("procOrder = %v, want %v", got, want)
		}
	}
}
