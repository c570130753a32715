package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The JSONL trace format: one self-describing record per line. Span records
// stream out as spans end (children before parents, interleaved across
// goroutines); readers reconstruct the tree from the id/parent fields.
// Every span that anchors a metrics.Breakdown additionally emits a summary
// record when it ends — the Breakdown's snapshot at that instant — so a
// trace file carries both the raw spans and the Figure 3 rollup they
// project onto, and `dnnlock trace -check` can verify the two agree.

// SpanRecord is the exported form of one completed span.
type SpanRecord struct {
	Type    string         `json:"type"` // "span"
	ID      uint64         `json:"id"`
	Parent  uint64         `json:"parent,omitempty"` // 0 = root
	Name    string         `json:"name"`
	StartNS int64          `json:"start_ns"` // offset from tracer start
	DurNS   int64          `json:"dur_ns"`
	Queries int64          `json:"queries,omitempty"`
	Rounds  int64          `json:"rounds,omitempty"`
	Retries int64          `json:"retries,omitempty"`
	SimNS   int64          `json:"sim_ns,omitempty"` // simulated channel time (farm runs)
	Proc    string         `json:"proc,omitempty"`
	Attrs   map[string]any `json:"attrs,omitempty"`
	Events  []EventRecord  `json:"events,omitempty"`
}

// EventRecord is the exported form of one span event.
type EventRecord struct {
	Name  string         `json:"name"`
	AtNS  int64          `json:"at_ns"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// SummaryRecord is the Breakdown snapshot emitted when a rollup-anchoring
// span ends: the per-procedure times, query counts, and round counts
// Figure 3 renders.
type SummaryRecord struct {
	Type    string           `json:"type"` // "summary"
	Span    uint64           `json:"span"` // the anchoring span's id
	Name    string           `json:"name"`
	TimesNS map[string]int64 `json:"times_ns"`
	Queries map[string]int64 `json:"queries"`
	Rounds  map[string]int64 `json:"rounds,omitempty"`
	SimNS   map[string]int64 `json:"sim_ns,omitempty"` // simulated channel time (farm runs)
	TotalNS int64            `json:"total_ns"`
}

// attrMap folds creation-time and late attributes into one JSON map,
// dropping the proc label (exported as its own field).
func attrMap(attrs, late []Attr) map[string]any {
	if len(attrs)+len(late) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs)+len(late))
	for _, a := range attrs {
		if a.Key == procKey {
			continue
		}
		m[a.Key] = a.Val
	}
	for _, a := range late {
		m[a.Key] = a.Val
	}
	if len(m) == 0 {
		return nil
	}
	return m
}

// export serializes a completed span (and, for rollup anchors, the summary)
// to the sink. events and late are End's under-lock snapshots of the span's
// mutable slices. No-op without a sink.
func (t *Tracer) export(s *Span, dur time.Duration, events []Event, late []Attr) {
	if t.sink == nil {
		return
	}
	rec := SpanRecord{
		Type:    "span",
		ID:      s.id,
		Name:    s.name,
		StartNS: s.start.Sub(t.start).Nanoseconds(),
		DurNS:   dur.Nanoseconds(),
		Queries: s.queries.Load(),
		Rounds:  s.rounds.Load(),
		Retries: s.retries.Load(),
		SimNS:   s.simNS.Load(),
		Proc:    string(s.proc),
		Attrs:   attrMap(s.attrs, late),
	}
	if s.parent != nil {
		rec.Parent = s.parent.id
	}
	for _, ev := range events {
		rec.Events = append(rec.Events, EventRecord{
			Name:  ev.Name,
			AtNS:  ev.At.Nanoseconds(),
			Attrs: attrMap(ev.Attrs, nil),
		})
	}
	var sum *SummaryRecord
	if s.bd != nil {
		snap := s.bd.Snapshot()
		sum = &SummaryRecord{
			Type:    "summary",
			Span:    s.id,
			Name:    s.name,
			TimesNS: make(map[string]int64, len(snap.Times)),
			Queries: make(map[string]int64, len(snap.Queries)),
			Rounds:  make(map[string]int64, len(snap.Rounds)),
			TotalNS: snap.Total.Nanoseconds(),
		}
		for p, d := range snap.Times {
			sum.TimesNS[string(p)] = d.Nanoseconds()
		}
		for p, n := range snap.Queries {
			sum.Queries[string(p)] = n
		}
		for p, n := range snap.Rounds {
			sum.Rounds[string(p)] = n
		}
		if len(snap.Sim) > 0 {
			sum.SimNS = make(map[string]int64, len(snap.Sim))
			for p, d := range snap.Sim {
				sum.SimNS[string(p)] = d.Nanoseconds()
			}
		}
	}

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	t.err = writeRecord(t.sink, rec)
	if t.err == nil && sum != nil {
		t.err = writeRecord(t.sink, sum)
	}
}

func writeRecord(w io.Writer, rec any) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	b = append(b, '\n')
	_, err = w.Write(b)
	return err
}

// Trace is a parsed JSONL trace file.
type Trace struct {
	Spans     []SpanRecord
	Summaries []SummaryRecord
}

// ReadTrace parses a JSONL trace. Unknown record types are skipped so the
// format can grow; malformed lines are errors, and so is a span tree the
// renderers cannot walk (see checkSpanTree).
func ReadTrace(r io.Reader) (*Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	tr := &Trace{}
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var head struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &head); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		switch head.Type {
		case "span":
			var s SpanRecord
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			tr.Spans = append(tr.Spans, s)
		case "summary":
			var s SummaryRecord
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
			}
			tr.Summaries = append(tr.Summaries, s)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading trace: %w", err)
	}
	if err := checkSpanTree(tr.Spans); err != nil {
		return nil, err
	}
	return tr, nil
}

// checkSpanTree rejects two spans that share an ID and any span that is its
// own ancestor: walking such a tree from a root never ends. A parent that
// is missing from the file is legal, because a truncated trace has those.
func checkSpanTree(spans []SpanRecord) error {
	parent := make(map[uint64]uint64, len(spans))
	for _, s := range spans {
		if _, dup := parent[s.ID]; dup {
			return fmt.Errorf("obs: trace has two spans with id %d", s.ID)
		}
		parent[s.ID] = s.Parent
	}
	// Walk each span's ancestor chain once; a chain that meets itself is a
	// cycle, and one that meets an already-checked span ends there.
	const onChain, checked = 1, 2
	state := make(map[uint64]int8, len(spans))
	var chain []uint64
	for _, s := range spans {
		chain = chain[:0]
		for id := s.ID; state[id] != checked; {
			if state[id] == onChain {
				return fmt.Errorf("obs: trace span %d is its own ancestor", id)
			}
			p, ok := parent[id]
			if !ok {
				break
			}
			state[id] = onChain
			chain = append(chain, id)
			id = p
		}
		for _, id := range chain {
			state[id] = checked
		}
	}
	return nil
}
