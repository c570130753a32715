package core

// The oracle query planner: the only sanctioned path from the attack to
// oracle.Interface (enforced by the `queryseam` dnnlint analyzer). The
// planner exists because a remote oracle pays per round-trip, not per row:
// QueryBatch evaluates any number of rows in one round, so every multi-point
// probe — the three points of a second difference, the kink+background
// groups of a whole validation — should travel together. multi issues a
// probe group as one QueryBatch with its rows in query order. Callers build
// each group explicitly, in index order — one per inference probe vote, one
// for all the votes of a validation (kinkVotes) — so the batches, and with
// them queries and rounds, never depend on the core count.
//
// queryRetry/queryBatchRetry, the bounded-retry policy on a bare Interface,
// live here too so the lint seam is one file.

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

// query asks the oracle for one point, retrying transient failures up to
// cfg.QueryRetries times. A clean oracle never errors, so this path adds
// nothing to the paper's reproduction; against a degraded one it returns the
// terminal error (budget exhaustion, device fault) for the caller to
// propagate out of Run. sp, when non-nil, is the caller's detail span: it
// counts every attempt and retry (it never receives the phase span itself —
// phase query counts come from the oracle-counter delta in trackProc, and
// double counting there would corrupt the Figure 3 rollup).
func (a *Attack) query(sp *obs.Span, x []float64) ([]float64, error) {
	return queryRetry(a.orc, x, a.cfg.QueryRetries, sp)
}

// multi issues every row of x in one oracle round — a probe group, or the
// learning attack's labelling batch — with result rows aligned with input
// rows. The returned matrix is pooled and owned by the caller.
func (a *Attack) multi(sp *obs.Span, x *tensor.Matrix) (*tensor.Matrix, error) {
	return queryBatchRetry(a.orc, x, a.cfg.QueryRetries, sp)
}

// queryRetry implements the bounded-retry policy on a bare Interface,
// counting attempts and retries on the (nil-safe) span.
func queryRetry(orc oracle.Interface, x []float64, retries int, sp *obs.Span) ([]float64, error) {
	var err error
	for t := 0; t <= retries; t++ {
		if t > 0 {
			sp.AddRetry()
		}
		sp.AddQueries(1)
		var y []float64
		y, err = orc.Query(x)
		if err == nil {
			return y, nil
		}
		if !errors.Is(err, oracle.ErrTransient) {
			return nil, err
		}
	}
	return nil, err
}

// queryBatchRetry is queryRetry for batches.
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
