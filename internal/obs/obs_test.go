package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"dnnlock/internal/metrics"
)

// TestNilSafety drives every Tracer and Span method through nil receivers:
// the no-op contract call sites rely on to stay conditional-free.
func TestNilSafety(t *testing.T) {
	var tr *Tracer
	if err := tr.Close(); err != nil {
		t.Fatalf("nil tracer Close: %v", err)
	}
	sp := tr.Start("root")
	if sp != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	// Every span method must accept the nil receiver.
	sp.AddQueries(3)
	sp.AddRounds(1)
	sp.AddSimNS(5)
	sp.AddRetry()
	sp.Event("ev", Int("k", 1))
	sp.Annotate(String("k", "v"))
	sp.MarkAnchor()
	sp.AnnotateRuntime(RuntimeStats{})
	sp.End()
	if q := sp.Queries(); q != 0 {
		t.Fatalf("nil span queries = %d", q)
	}
	//lint:ignore spanpair asserting the nil-span contract: Child on a nil span returns nil, there is nothing to end
	if c := sp.Child("x"); c != nil {
		t.Fatal("nil span Child returned non-nil")
	}
}

// TestNoSinkReturnsNilSpans pins the sinkless tracer: with nowhere to
// export, it creates no spans at all, so the attack's phases (which keep
// their numbers in their own ledger) pay nothing for tracing.
func TestNoSinkReturnsNilSpans(t *testing.T) {
	tr := New()
	//lint:ignore spanpair asserting the no-sink contract: Start returns nil without a sink, there is nothing to end
	if sp := tr.Start("attack"); sp != nil {
		t.Fatal("sinkless tracer returned a span")
	}
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestEndIdempotent pins that a double End exports one record, with the
// counters the span had at its first End.
func TestEndIdempotent(t *testing.T) {
	var buf bytes.Buffer
	tr := New(WithSink(&buf))
	root := tr.Start("attack")
	root.MarkAnchor()
	ph := root.Child("infer", Proc(metrics.ProcKeyBitInference))
	ph.AddQueries(2)
	ph.End()
	ph.End()
	root.End()
	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) != 2 {
		t.Fatalf("got %d span records, want 2", len(trace.Spans))
	}
	if _, queries, _, _ := trace.RollupFromSpans(root.id); queries[string(metrics.ProcKeyBitInference)] != 2 {
		t.Fatalf("double End double-counted: queries = %v, want 2", queries)
	}
}

// TestJSONLRoundTrip writes a small trace and reads it back through
// ReadTrace, verifying span fields, the parent links, events, late
// attributes, and the anchor mark — the `dnnlock trace` input format.
func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := New(WithSink(&buf))
	root := tr.Start("attack", String("model", "mlp"))
	root.MarkAnchor()
	ph := root.Child("infer", Proc(metrics.ProcKeyBitInference), Int("site", 4))
	probe := ph.Child("probe", Int("bit", 7))
	probe.AddQueries(3)
	probe.AddRetry()
	probe.Event("degraded", String("reason", "transient"))
	probe.End(Bool("decided", true))
	ph.AddQueries(probe.Queries())
	ph.End()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(trace.Spans))
	}
	byName := map[string]SpanRecord{}
	for _, s := range trace.Spans {
		byName[s.Name] = s
	}
	pr, ok := byName["probe"]
	if !ok {
		t.Fatal("probe span missing")
	}
	if pr.Queries != 3 || pr.Retries != 1 {
		t.Fatalf("probe queries/retries = %d/%d, want 3/1", pr.Queries, pr.Retries)
	}
	if pr.Parent != byName["infer"].ID {
		t.Fatal("probe not parented to infer")
	}
	if byName["infer"].Parent != byName["attack"].ID {
		t.Fatal("infer not parented to attack")
	}
	if pr.Attrs["bit"] != float64(7) { // JSON numbers decode as float64
		t.Fatalf("probe bit attr = %v", pr.Attrs["bit"])
	}
	if pr.Attrs["decided"] != true {
		t.Fatalf("late attr lost: %v", pr.Attrs)
	}
	if len(pr.Events) != 1 || pr.Events[0].Name != "degraded" {
		t.Fatalf("probe events = %+v", pr.Events)
	}
	if pr.Proc != "" {
		t.Fatalf("probe has proc label %q; detail spans must not roll up", pr.Proc)
	}
	inf := byName["infer"]
	if inf.Proc != string(metrics.ProcKeyBitInference) {
		t.Fatalf("infer proc = %q", inf.Proc)
	}
	if _, ok := inf.Attrs["proc"]; ok {
		t.Fatal("proc leaked into the attrs map")
	}
	if anchors := trace.Anchors(); len(anchors) != 1 || anchors[0].ID != byName["attack"].ID {
		t.Fatalf("anchors = %+v, want only the attack span", anchors)
	}
	if pr.Anchor || inf.Anchor {
		t.Fatal("anchor mark leaked onto a child span")
	}
	if _, ok := byName["attack"].Attrs["anchor"]; ok {
		t.Fatal("anchor leaked into the attrs map")
	}
}

// TestConcurrentSpans hammers one tracer from many goroutines — parallel
// QueryBatch workers each opening detail spans, adding counters, and ending
// them — and checks the totals, the rollup and the exported record count.
// Run under -race this is the tracer's concurrency test.
func TestConcurrentSpans(t *testing.T) {
	var buf bytes.Buffer
	tr := New(WithSink(&buf))
	root := tr.Start("attack")
	root.MarkAnchor()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				ph := root.Child(fmt.Sprintf("batch-%d", w), Proc(metrics.ProcLearningAttack))
				sp := ph.Child("probe", Int("i", i))
				sp.AddQueries(2)
				sp.Event("tick")
				sp.End()
				ph.AddQueries(2)
				root.AddQueries(2)
				ph.End()
			}
		}(w)
	}
	wg.Wait()
	root.End()
	if err := tr.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	wantQ := int64(workers * perWorker * 2)
	if got := root.Queries(); got != wantQ {
		t.Fatalf("root queries = %d, want %d", got, wantQ)
	}
	trace, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, queries, _, _ := trace.RollupFromSpans(root.id); queries[string(metrics.ProcLearningAttack)] != wantQ {
		t.Fatalf("rollup queries = %v, want %d", queries, wantQ)
	}
	wantSpans := 1 + 2*workers*perWorker
	if len(trace.Spans) != wantSpans {
		t.Fatalf("got %d span records, want %d", len(trace.Spans), wantSpans)
	}
	ids := map[uint64]bool{}
	for _, s := range trace.Spans {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
}

// TestReadTraceErrors pins the reader's tolerance: unknown record types
// (including the summary records older traces carry) are skipped, malformed
// JSON is an error with the line number.
func TestReadTraceErrors(t *testing.T) {
	in := `{"type":"span","id":1,"name":"a","start_ns":0,"dur_ns":5}
{"type":"future-record","payload":1}

{"type":"summary","span":1,"name":"a","times_ns":{},"queries":{},"total_ns":5}`
	trace, err := ReadTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace.Spans) != 1 {
		t.Fatalf("spans=%d, want 1", len(trace.Spans))
	}
	if _, err := ReadTrace(strings.NewReader("{not json\n")); err == nil {
		t.Fatal("malformed line accepted")
	} else if !strings.Contains(err.Error(), "line 1") {
		t.Fatalf("error lacks line number: %v", err)
	}
}

// TestReadTraceRejectsCycles pins the span-tree checks at the trust
// boundary: a cyclic or ambiguous parent graph would make every renderer's
// tree walk loop until memory runs out, so the reader refuses it. A parent
// missing from the file stays legal: a truncated trace has those.
func TestReadTraceRejectsCycles(t *testing.T) {
	for name, spans := range map[string]string{
		"self-parented": `{"type":"span","id":1,"parent":1,"name":"x","proc":"learning_attack","dur_ns":5}` + "\n",
		"two-span cycle": `{"type":"span","id":1,"parent":2,"name":"x","dur_ns":5}` + "\n" +
			`{"type":"span","id":2,"parent":1,"name":"y","dur_ns":5}` + "\n",
		"shared id": `{"type":"span","id":1,"name":"x","dur_ns":5}` + "\n" +
			`{"type":"span","id":1,"name":"y","dur_ns":5}` + "\n",
	} {
		if _, err := ReadTrace(strings.NewReader(spans)); err == nil {
			t.Errorf("%s: trace accepted", name)
		}
	}
	truncated := `{"type":"span","id":3,"parent":2,"name":"x","dur_ns":5}` + "\n" +
		`{"type":"span","id":4,"parent":3,"name":"y","dur_ns":5}` + "\n"
	if _, err := ReadTrace(strings.NewReader(truncated)); err != nil {
		t.Errorf("truncated trace with a missing parent rejected: %v", err)
	}
}

// TestSinkErrorSurfaced checks the first write error is kept and returned
// by Close instead of being silently dropped.
func TestSinkErrorSurfaced(t *testing.T) {
	tr := New(WithSink(failWriter{}))
	sp := tr.Start("x")
	sp.End()
	if err := tr.Close(); err == nil {
		t.Fatal("sink write error lost")
	}
}

type failWriter struct{}

func (failWriter) Write([]byte) (int, error) { return 0, fmt.Errorf("disk full") }
