// Package obs is the observability layer of the decryption attack: nested
// span tracing, structured logging, and profiling hooks, all pure standard
// library.
//
// A Tracer records a tree of timed spans (attack → cell → site → procedure
// → probe) with monotonic timings, per-span oracle-query, round-trip, and
// retry counters, and point events (degradations, retries, correction
// attempts). Spans of farm-backed runs also carry sim_ns, the simulated
// channel time consumed under the span, so a trace prices the attack over
// the network it modeled. Completed spans stream to the tracer's JSONL sink.
// A span marked as an anchor (the root of one attack) groups the
// proc-labelled phase spans beneath it; `dnnlock trace` renders each
// anchor's Figure 3 table from those spans, and `-check` verifies the tree
// and the coverage of each anchor's wall time.
//
// The trace is a view, not a ledger: each attack keeps its per-procedure
// numbers in its own metrics.Breakdown, and a trace repeats them per phase
// span only when one is recorded. A Tracer without a sink (obs.New()) — and
// a nil Tracer — therefore creates no spans at all: Start returns nil, and
// so does every Child of it. Tracing never touches the attack's numerics or
// its random streams, so the traced and untraced runs are bit-identical
// (pinned by TestTracedRunBitIdentical in internal/core).
//
// All Span methods are nil-safe: a nil *Span accepts every call as a no-op,
// so call sites carry no conditionals.
package obs

import (
	"io"
	"sync"
	"sync/atomic"
	"time"

	"dnnlock/internal/metrics"
)

// Tracer produces spans and serializes completed ones to the sink. Safe for
// concurrent use: spans may start and end on any goroutine.
type Tracer struct {
	mu     sync.Mutex // guards sink writes and err
	sink   io.Writer  // nil = no export (the no-op default)
	err    error      // first sink write error, surfaced by Close
	start  time.Time  // monotonic anchor; all record times are offsets
	nextID atomic.Uint64
}

// Option configures a Tracer.
type Option func(*Tracer)

// WithSink streams completed spans to w as JSONL, one record per span.
// Without a sink the tracer records nothing.
func WithSink(w io.Writer) Option {
	return func(t *Tracer) { t.sink = w }
}

// New returns a Tracer. With no options it is a no-op: it has nowhere to
// export spans, so it creates none.
func New(opts ...Option) *Tracer {
	t := &Tracer{start: time.Now()}
	for _, o := range opts {
		o(t)
	}
	return t
}

// Start opens a root span. A nil Tracer, or one without a sink, returns a
// nil (no-op) span.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.newSpan(nil, name, attrs)
}

// Close flushes nothing (writes are unbuffered by the tracer; wrap the sink
// in a bufio.Writer and flush it yourself if needed) but surfaces the first
// sink write error encountered. Nil-safe.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.err
}

func (t *Tracer) newSpan(parent *Span, name string, attrs []Attr) *Span {
	s := &Span{
		tr:     t,
		parent: parent,
		id:     t.nextID.Add(1),
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	for _, a := range attrs {
		if a.Key == procKey {
			if p, ok := a.Val.(string); ok {
				s.proc = metrics.Procedure(p)
			}
		}
	}
	return s
}

// Span is one timed node of the trace tree. Counters are atomic, so a span
// may be shared across the goroutines of one parallel phase; Child and End
// may likewise be called from any goroutine.
type Span struct {
	tr     *Tracer
	parent *Span
	id     uint64
	name   string
	start  time.Time
	attrs  []Attr
	proc   metrics.Procedure // Figure 3 procedure of a phase span, else empty
	anchor bool              // root of one attack: renderers roll phases up to it

	queries atomic.Int64
	rounds  atomic.Int64
	retries atomic.Int64
	simNS   atomic.Int64 // simulated channel time (farm transport), in ns

	mu     sync.Mutex
	events []Event
	late   []Attr
	ended  bool
}

// Event is a point annotation inside a span (a retry, a degradation, a
// correction attempt).
type Event struct {
	Name  string
	At    time.Duration // offset from the tracer's start
	Attrs []Attr
}

// Child opens a sub-span. Nil-safe: a nil receiver returns nil.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s, name, attrs)
}

// MarkAnchor marks s as the root of one attack: its record carries
// "anchor":true, and the trace renderers roll the proc-labelled spans
// beneath it up into one Figure 3 table. Call it right after opening s,
// before s is shared with other goroutines. Nil-safe.
func (s *Span) MarkAnchor() {
	if s == nil {
		return
	}
	s.anchor = true
}

// AddQueries adds n to the span's oracle-query counter. Nil-safe, atomic.
func (s *Span) AddQueries(n int64) {
	if s == nil {
		return
	}
	s.queries.Add(n)
}

// AddRounds adds n to the span's oracle round-trip counter. Nil-safe,
// atomic.
func (s *Span) AddRounds(n int64) {
	if s == nil {
		return
	}
	s.rounds.Add(n)
}

// AddSimNS adds n nanoseconds of simulated channel time — the virtual
// clock's advance while this span's oracle traffic was in flight on a
// farm-simulated transport. Nil-safe, atomic. Spans of runs against a
// direct oracle never receive any and export no sim field.
func (s *Span) AddSimNS(n int64) {
	if s == nil {
		return
	}
	s.simNS.Add(n)
}

// AddRetry counts one transient-failure retry. Nil-safe, atomic.
func (s *Span) AddRetry() {
	if s == nil {
		return
	}
	s.retries.Add(1)
}

// Queries returns the span's query counter (0 for nil).
func (s *Span) Queries() int64 {
	if s == nil {
		return 0
	}
	return s.queries.Load()
}

// Event records a point annotation. Nil-safe.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	ev := Event{Name: name, At: time.Since(s.tr.start), Attrs: attrs}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// Annotate attaches attributes after span creation (an outcome, a final
// loss). Nil-safe.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.late = append(s.late, attrs...)
	s.mu.Unlock()
}

// End closes the span: it stamps the duration and exports the record to
// the sink. End is idempotent and nil-safe.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	dur := time.Since(s.start)
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	s.late = append(s.late, attrs...)
	// Snapshot the mutable slices under the lock: export runs after release,
	// and a (misused) concurrent Event must not race the sink writer.
	events, late := s.events, s.late
	s.mu.Unlock()
	s.tr.export(s, dur, events, late)
}

const procKey = "proc"

// Attr is one key/value annotation. Values are restricted to JSON-friendly
// scalars by the constructors below.
type Attr struct {
	Key string
	Val any
}

// String makes a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int makes an integer attribute.
func Int(k string, v int) Attr { return Attr{Key: k, Val: int64(v)} }

// Int64 makes an integer attribute.
func Int64(k string, v int64) Attr { return Attr{Key: k, Val: v} }

// Float makes a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Val: v} }

// Bool makes a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Val: v} }

// Proc labels a span as one phase of one of the Figure 3 procedures; the
// trace renderers add its duration, queries, rounds and simulated time to
// the enclosing anchor under this procedure.
func Proc(p metrics.Procedure) Attr { return Attr{Key: procKey, Val: string(p)} }
