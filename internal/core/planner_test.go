package core

import (
	"math/rand"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// callRecorder records the row count of every oracle round-trip.
type callRecorder struct {
	oracle.Interface
	calls []int
}

func (r *callRecorder) Query(x []float64) ([]float64, error) {
	r.calls = append(r.calls, 1)
	return r.Interface.Query(x)
}

func (r *callRecorder) QueryBatch(x *tensor.Matrix) (*tensor.Matrix, error) {
	r.calls = append(r.calls, x.Rows)
	return r.Interface.QueryBatch(x)
}

// TestProbeBitSendsEveryVote: under a declared-noisy oracle every one of
// the ProbeVotes repeats of Algorithm 1's three-point probe reaches the
// oracle as its own 3-row group in its own round, so a probe that reaches
// the oracle costs 3·votes queries in votes rounds. Each repeat draws fresh
// noise only if it is really sent; a repeat answered from memory would
// silently turn the majority vote into a single shot.
func TestProbeBitSendsEveryVote(t *testing.T) {
	const sigma = 1e-5
	for _, votes := range []int{1, 3} {
		rng := rand.New(rand.NewSource(430))
		lm, key := hpnn.Lock(models.TinyMLP(rng), hpnn.Config{Scheme: hpnn.Negation, KeyBits: 8, Rng: rng})
		rec := &callRecorder{Interface: oracle.Noisy(oracle.New(lm, key), sigma, 431)}
		cfg := DefaultConfig()
		cfg.NoiseSigma = sigma
		cfg.ProbeVotes = votes
		a := New(lm.WhiteBox(), lm.Spec, rec, cfg)
		decided := 0
		for i, pn := range lm.Spec.Neurons {
			if pn.Site != 0 {
				continue // first-site bits: no prefix key to recover first
			}
			x0, ok := searchCriticalPoint(a.white, pn.Site, pn.Index, a.cfg, rng)
			if !ok {
				continue
			}
			v, ok := a.preimage(x0, pn.Site, pn.Index)
			if !ok {
				continue
			}
			rec.calls = nil
			q0, r0 := rec.Queries(), rec.Rounds()
			bit, ok, err := a.probeBit(nil, x0, v, pn.Site, pn.Index)
			if err != nil {
				t.Fatal(err)
			}
			if len(rec.calls) == 0 {
				continue // the ε-step never stayed clean: nothing was sent
			}
			if len(rec.calls) != votes {
				t.Fatalf("ProbeVotes=%d, bit %d: %d rounds %v, want %d", votes, i, len(rec.calls), rec.calls, votes)
			}
			for _, rows := range rec.calls {
				if rows != 3 {
					t.Fatalf("ProbeVotes=%d, bit %d: rounds of %v rows, want 3 each", votes, i, rec.calls)
				}
			}
			if q, r := rec.Queries()-q0, rec.Rounds()-r0; q != int64(3*votes) || r != int64(votes) {
				t.Fatalf("ProbeVotes=%d, bit %d: %d queries in %d rounds, want %d in %d", votes, i, q, r, 3*votes, votes)
			}
			if ok {
				if got := bit == bitOne; got != key[i] {
					t.Fatalf("ProbeVotes=%d, bit %d decided %v, key has %v", votes, i, got, key[i])
				}
				decided++
			}
		}
		if decided == 0 {
			t.Fatalf("ProbeVotes=%d: no first-site bit was decided", votes)
		}
	}
}
