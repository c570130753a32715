package core

// The oracle query planner: the only sanctioned path from the attack to
// oracle.Interface (enforced by the `queryseam` dnnlint analyzer), and
// a.multi is its one entry point. The planner exists because a remote
// oracle pays per round-trip, not per row: QueryBatch evaluates any number
// of rows in one round, so every multi-point probe — the three points of a
// second difference, the kink+background groups of a whole validation, the
// inputs of a direct comparison — should travel together. multi issues a
// probe group as one QueryBatch with its rows in query order. Callers build
// each group explicitly, in index order — one per inference probe vote, one
// for all the votes of a validation (kinkVotes) — so the batches, and with
// them queries and rounds, never depend on the core count.
//
// queryBatchRetry, the bounded-retry policy on a bare Interface, lives here
// too so the lint seam is one file.

import (
	"errors"
	"sync/atomic"

	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// critStats accumulates critical-point search effort: rounds (sequential
// narrowing steps) and probes (point evaluations). The bisection probes one
// midpoint per round, so the two stay equal; both are reported because the
// checkpoint format and the benchmark carry both. New points cfg.critStats
// at the attack's instance; the search code in critical.go reports through
// the pointer.
type critStats struct {
	rounds atomic.Int64
	probes atomic.Int64
}

// count records one narrowing round of one probe. Nil-safe: a bare Config
// (direct searchZero calls in tests) carries no stats sink.
func (s *critStats) count() {
	if s == nil {
		return
	}
	s.rounds.Add(1)
	s.probes.Add(1)
}

// multi issues every row of x in one oracle round — a probe group, a direct
// comparison's inputs, or the learning attack's labelling batch — with
// result rows aligned with input rows. The returned matrix is pooled and
// owned by the caller.
func (a *Attack) multi(sp *obs.Span, x *tensor.Matrix) (*tensor.Matrix, error) {
	return queryBatchRetry(a.orc, x, a.cfg.QueryRetries, sp)
}

// queryBatchRetry implements the bounded-retry policy on a bare Interface:
// it retries ErrTransient up to retries times and counts attempts (in rows)
// and retries on the (nil-safe) span. sp, when non-nil, is the caller's
// detail span; it never receives the phase span itself, whose query count
// comes from the oracle-counter delta in trackProc, so nothing is counted
// twice in the trace's Figure 3 table.
func queryBatchRetry(orc oracle.Interface, x *tensor.Matrix, retries int, sp *obs.Span) (*tensor.Matrix, error) {
	var err error
	for t := 0; t <= retries; t++ {
		if t > 0 {
			sp.AddRetry()
		}
		sp.AddQueries(int64(x.Rows))
		var y *tensor.Matrix
		y, err = orc.QueryBatch(x)
		if err == nil {
			return y, nil
		}
		tensor.PutMatrix(y) // nil on error; nil-safe release keeps the path visibly balanced
		if !errors.Is(err, oracle.ErrTransient) {
			return nil, err
		}
	}
	return nil, err
}
