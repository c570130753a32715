// Package metrics implements the paper's four evaluation metrics (§4.2):
// accuracy and fidelity live with their data (train.Evaluate, hpnn.Key
// .Fidelity); this package adds the per-procedure ledger behind Figure 3,
// the one place an attack records where its time, queries, round-trips and
// simulated channel time went.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Procedure names the four attack procedures of Figure 3.
type Procedure string

// The procedures whose runtime Figure 3 breaks down.
const (
	ProcKeyBitInference     Procedure = "key_bit_inference"
	ProcLearningAttack      Procedure = "learning_attack"
	ProcKeyVectorValidation Procedure = "key_vector_validation"
	ProcErrorCorrection     Procedure = "error_correction"
)

// AllProcedures lists the Figure 3 procedures in presentation order.
var AllProcedures = []Procedure{
	ProcKeyBitInference,
	ProcLearningAttack,
	ProcKeyVectorValidation,
	ProcErrorCorrection,
}

// Breakdown is an attack's per-procedure ledger: the wall time, oracle
// queries, round-trips and simulated channel time of every procedure that
// ran. The attack adds each phase with AddPhase as the phase ends, and a
// resumed attack seeds it with the checkpointed totals the same way, so it
// always covers the whole run. Result's per-procedure maps, the next
// checkpoint and Figure 3 are all read from it. Safe for concurrent use:
// every reader goes through one lock acquisition (Snapshot), so shares and
// totals stay mutually consistent while a phase is being added.
type Breakdown struct {
	mu      sync.Mutex
	times   map[Procedure]time.Duration
	queries map[Procedure]int64
	rounds  map[Procedure]int64
	sim     map[Procedure]time.Duration
}

// NewBreakdown returns an empty breakdown.
func NewBreakdown() *Breakdown {
	return &Breakdown{
		times:   make(map[Procedure]time.Duration),
		queries: make(map[Procedure]int64),
		rounds:  make(map[Procedure]int64),
		sim:     make(map[Procedure]time.Duration),
	}
}

// AddPhase records one phase of proc: its wall time and the oracle queries,
// round-trips (Query/QueryBatch calls, the latency-side companion of the
// per-row query count) and simulated channel time it consumed. Only runs
// against a farm-simulated transport (internal/farm) spend simulated time;
// a phase that spent none leaves proc out of the simulated-time map, so
// Snapshot.Sim names only the procedures that used the simulated channel.
func (b *Breakdown) AddPhase(proc Procedure, wall time.Duration, queries, rounds int64, sim time.Duration) {
	b.mu.Lock()
	b.times[proc] += wall
	b.queries[proc] += queries
	b.rounds[proc] += rounds
	if sim != 0 {
		b.sim[proc] += sim
	}
	b.mu.Unlock()
}

// Track runs f and records it as one phase of proc that used no oracle.
func (b *Breakdown) Track(proc Procedure, f func()) {
	start := time.Now()
	f()
	b.AddPhase(proc, time.Since(start), 0, 0, 0)
}

// Get returns the accumulated time of proc.
func (b *Breakdown) Get(proc Procedure) time.Duration {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.times[proc]
}

// Total returns the sum over all procedures.
func (b *Breakdown) Total() time.Duration {
	return b.Snapshot().Total
}

// Snapshot is a self-consistent copy of a breakdown: the four
// per-procedure maps and the total time, all observed under one lock
// acquisition. Every procedure that ran has an entry in Times, Queries and
// Rounds (zero if it used no oracle); Sim holds only nonzero entries.
type Snapshot struct {
	Times   map[Procedure]time.Duration
	Queries map[Procedure]int64
	Rounds  map[Procedure]int64
	Sim     map[Procedure]time.Duration
	Total   time.Duration
}

// Snapshot copies the ledger under one lock acquisition. Every reader
// (Result's per-procedure maps, the checkpoint, String, Percentages)
// derives from a Snapshot, so a phase added concurrently can never produce
// a torn view (shares above 100, queries without times).
func (b *Breakdown) Snapshot() Snapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := Snapshot{
		Times:   make(map[Procedure]time.Duration, len(b.times)),
		Queries: make(map[Procedure]int64, len(b.queries)),
		Rounds:  make(map[Procedure]int64, len(b.rounds)),
		Sim:     make(map[Procedure]time.Duration, len(b.sim)),
	}
	for p, d := range b.times {
		s.Times[p] = d
		s.Total += d
	}
	for p, n := range b.queries {
		s.Queries[p] = n
	}
	for p, n := range b.rounds {
		s.Rounds[p] = n
	}
	for p, d := range b.sim {
		s.Sim[p] = d
	}
	return s
}

// Procedures lists the snapshot's procedures in deterministic render order:
// the Figure 3 procedures first, then any nonstandard ones sorted by name.
func (s Snapshot) Procedures() []Procedure {
	out := append([]Procedure(nil), AllProcedures...)
	var extra []string
	for p := range s.Times {
		if !isStandard(p) {
			extra = append(extra, string(p))
		}
	}
	sort.Strings(extra)
	for _, p := range extra {
		out = append(out, Procedure(p))
	}
	return out
}

// Percent returns proc's share of the snapshot's total in [0, 100].
func (s Snapshot) Percent(proc Procedure) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.Times[proc]) / float64(s.Total)
}

// Percent returns proc's share of the total in [0, 100].
func (b *Breakdown) Percent(proc Procedure) float64 {
	return b.Snapshot().Percent(proc)
}

// Percentages returns the share per procedure: every Figure 3 procedure
// (zero if never tracked) plus any nonstandard ones that accumulated time.
// All shares come from one snapshot, so they sum to 100 (or all zero).
func (b *Breakdown) Percentages() map[Procedure]float64 {
	s := b.Snapshot()
	out := make(map[Procedure]float64, len(AllProcedures)+len(s.Times))
	for _, p := range AllProcedures {
		out[p] = 0
	}
	for p := range s.Times {
		out[p] = s.Percent(p)
	}
	return out
}

func isStandard(p Procedure) bool {
	for _, q := range AllProcedures {
		if p == q {
			return true
		}
	}
	return false
}

// String renders a one-line summary: the Figure 3 procedures in
// presentation order, then any nonstandard procedures sorted by name, each
// with its share and accumulated duration. All values come from a single
// Snapshot, so the line is internally consistent even while other
// goroutines keep accumulating.
func (b *Breakdown) String() string {
	s := b.Snapshot()
	var parts []string
	for _, p := range s.Procedures() {
		d := s.Times[p]
		parts = append(parts, fmt.Sprintf("%s %.1f%% (%s)", p, s.Percent(p), d.Round(time.Millisecond)))
	}
	return strings.Join(parts, ", ")
}
