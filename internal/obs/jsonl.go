package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The JSONL trace format: one self-describing record per line, all of type
// "span". Span records stream out as spans end (children before parents,
// interleaved across goroutines); readers reconstruct the tree from the
// id/parent fields. An attack's root span carries "anchor":true, and its
// Figure 3 breakdown is the rollup of the proc-labelled spans beneath it.

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
	Anchor  bool           `json:"anchor,omitempty"` // root of one attack (see Trace.Anchors)
	Attrs   map[string]any `json:"attrs,omitempty"`
	Events  []EventRecord  `json:"events,omitempty"`
}

// EventRecord is the exported form of one span event.
type EventRecord struct {
	Name  string         `json:"name"`
	AtNS  int64          `json:"at_ns"`
	Attrs map[string]any `json:"attrs,omitempty"`
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

// export serializes a completed span to the sink. events and late are End's
// under-lock snapshots of the span's mutable slices.
func (t *Tracer) export(s *Span, dur time.Duration, events []Event, late []Attr) {
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
		Anchor:  s.anchor,
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
	b, err := json.Marshal(rec)

	t.mu.Lock()
	defer t.mu.Unlock()
	if t.err != nil {
		return
	}
	if err == nil {
		_, err = t.sink.Write(append(b, '\n'))
	}
	t.err = err
}

// Trace is a parsed JSONL trace file.
type Trace struct {
	Spans []SpanRecord
}

// ReadTrace parses a JSONL trace. Records of any type but "span" are
// skipped so the format can grow; malformed lines are errors, and so is a
// span tree the renderers cannot walk (see checkSpanTree).
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
		if head.Type != "span" {
			continue
		}
		var s SpanRecord
		if err := json.Unmarshal(raw, &s); err != nil {
			return nil, fmt.Errorf("obs: trace line %d: %w", line, err)
		}
		tr.Spans = append(tr.Spans, s)
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
