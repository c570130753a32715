package core

// The oracle query planner: the only sanctioned path from the attack to
// oracle.Interface (enforced by the `queryseam` dnnlint analyzer). The
// planner exists because a remote oracle pays per round-trip, not per row:
// QueryBatch evaluates any number of rows in one round, so every multi-point
// probe — the three points of a second difference, the kink+background
// groups of a whole validation — should travel together. Two mechanisms:
//
//  1. multi: a probe group issued as one QueryBatch with the rows in the
//     exact order the scalar path would have queried them, so values and
//     query counts are bit-identical by construction. Callers build each
//     group explicitly, in index order — one per inference probe, one for
//     all the votes of a validation (kinkVotes) — so the batches, and with
//     them queries and rounds, never depend on the core count. On by
//     default; cfg.DisablePlanner restores the sequential scalar path (the
//     equivalence test pins the two paths against each other).
//  2. probeMemo (opt-in, cfg.ProbeCache): a content-addressed cache serving
//     repeat points without touching the oracle. Changes query counts, so
//     it is never on by default.
//
// queryRetry/queryBatchRetry, the bounded-retry policy on a bare Interface,
// live here too so the lint seam is one file.

import (
	"encoding/binary"
	"errors"
	"math"
	"sync"
	"sync/atomic"

	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// critStats accumulates critical-point search effort: rounds (sequential
// narrowing steps, each a batch of probes that could ship together) and
// probes (point evaluations). New points cfg.critStats at the attack's
// instance; the search code in critical.go reports through the pointer.
type critStats struct {
	rounds atomic.Int64
	probes atomic.Int64
}

// count records one narrowing round of n probes. Nil-safe: a bare Config
// (direct searchZero calls in tests) carries no stats sink.
func (s *critStats) count(n int64) {
	if s == nil {
		return
	}
	s.rounds.Add(1)
	s.probes.Add(n)
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
	var key string
	if a.memo != nil {
		key = probeKey(x)
		if y, ok := a.memo.get(key); ok {
			return y, nil
		}
	}
	y, err := queryRetry(a.orc, x, a.cfg.QueryRetries, sp)
	if err == nil && a.memo != nil {
		a.memo.put(key, y)
	}
	return y, err
}

// queryBatch asks the oracle for a bulk labelling batch (the learning
// attack's random inputs), one round per batch, bypassing the probe memo.
func (a *Attack) queryBatch(sp *obs.Span, x *tensor.Matrix) (*tensor.Matrix, error) {
	return queryBatchRetry(a.orc, x, a.cfg.QueryRetries, sp)
}

// multi issues every row of x as one probe group: one oracle round, rows
// answered in order, result rows aligned with input rows. The returned
// matrix is pooled and owned by the caller. The rows must be ordered exactly
// as the scalar path would have queried them — that ordering is what makes
// the planner bit-identical under an input-addressed noisy oracle.
func (a *Attack) multi(sp *obs.Span, x *tensor.Matrix) (*tensor.Matrix, error) {
	if a.cfg.DisablePlanner {
		return a.multiScalar(sp, x)
	}
	if a.memo != nil {
		return a.multiMemo(sp, x)
	}
	return queryBatchRetry(a.orc, x, a.cfg.QueryRetries, sp)
}

// multiScalar is the pre-planner reference path: each row is one Query call
// in row order. Kept behind cfg.DisablePlanner so the equivalence test can
// pin the planner against it.
func (a *Attack) multiScalar(sp *obs.Span, x *tensor.Matrix) (*tensor.Matrix, error) {
	if x.Rows == 0 {
		return tensor.GetMatrix(0, 0), nil
	}
	var out *tensor.Matrix
	for i := 0; i < x.Rows; i++ {
		y, err := queryRetry(a.orc, x.Row(i), a.cfg.QueryRetries, sp)
		if err != nil {
			tensor.PutMatrix(out) // nil-safe before the first row lands
			return nil, err
		}
		if out == nil {
			out = tensor.GetMatrix(x.Rows, len(y))
		}
		out.SetRow(i, y)
	}
	return out, nil
}

// multiMemo is multi with the probe memo in front: cached rows are filled
// from the memo, missing rows (deduplicated within the group) are fetched
// in one round, and the fresh answers are cached for the next candidate.
func (a *Attack) multiMemo(sp *obs.Span, x *tensor.Matrix) (*tensor.Matrix, error) {
	n := x.Rows
	if n == 0 {
		return tensor.GetMatrix(0, 0), nil
	}
	keys := make([]string, n)
	cached := make([][]float64, n)
	uniq := make([]int, 0, n)         // representative input row per distinct missing point
	missAt := make(map[string]int, n) // probe key -> row index into the miss batch
	for i := 0; i < n; i++ {
		keys[i] = probeKey(x.Row(i))
		if y, ok := a.memo.get(keys[i]); ok {
			cached[i] = y
			continue
		}
		if _, dup := missAt[keys[i]]; !dup {
			missAt[keys[i]] = len(uniq)
			uniq = append(uniq, i)
		}
	}
	var ym *tensor.Matrix
	if len(uniq) > 0 {
		xm := tensor.GetMatrix(len(uniq), x.Cols)
		for k, i := range uniq {
			xm.SetRow(k, x.Row(i))
		}
		var err error
		ym, err = queryBatchRetry(a.orc, xm, a.cfg.QueryRetries, sp)
		tensor.PutMatrix(xm)
		if err != nil {
			return nil, err
		}
		for k, i := range uniq {
			a.memo.put(keys[i], ym.Row(k))
		}
	}
	cols := 0
	if ym != nil {
		cols = ym.Cols
	} else {
		cols = len(cached[0])
	}
	out := tensor.GetMatrix(n, cols)
	for i := 0; i < n; i++ {
		if cached[i] != nil {
			out.SetRow(i, cached[i])
		} else {
			out.SetRow(i, ym.Row(missAt[keys[i]]))
		}
	}
	tensor.PutMatrix(ym) // nil-safe when every row was cached
	return out, nil
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

// --- probe memo ------------------------------------------------------------

// probeMemo is the content-addressed probe cache behind cfg.ProbeCache:
// exact input bytes -> cached oracle response. Error-correction candidates
// repeatedly probe the same critical points (the white-box prefix they
// search under is mostly shared), and a cached answer costs neither a query
// nor a round. Entries live for the attack's lifetime — runs are bounded —
// and responses are copied both ways so no caller aliases the cache.
type probeMemo struct {
	mu     sync.Mutex
	m      map[string][]float64
	hits   atomic.Int64
	misses atomic.Int64
}

func newProbeMemo() *probeMemo {
	return &probeMemo{m: make(map[string][]float64)}
}

// probeKey is the exact content address of a probe point: the little-endian
// bytes of each coordinate. Bitwise equality is the right notion here —
// the attack re-probes literally identical vectors, not nearby ones.
func probeKey(x []float64) string {
	b := make([]byte, 8*len(x))
	for i, v := range x {
		binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v))
	}
	return string(b)
}

func (m *probeMemo) get(key string) ([]float64, bool) {
	m.mu.Lock()
	y, ok := m.m[key]
	m.mu.Unlock()
	if !ok {
		m.misses.Add(1)
		return nil, false
	}
	m.hits.Add(1)
	return append([]float64(nil), y...), true
}

func (m *probeMemo) put(key string, y []float64) {
	m.mu.Lock()
	if _, dup := m.m[key]; !dup {
		m.m[key] = append([]float64(nil), y...)
	}
	m.mu.Unlock()
}
