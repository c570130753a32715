package core

import (
	"math/rand"
	"sort"

	"dnnlock/internal/obs"
)

// errorCorrection implements §3.8's heuristic repair: bits of the pending
// validation group are ordered by ascending learning confidence (algebraic
// bits carry confidence 1 and effectively never flip first); candidate
// keys at Hamming distance 1, 2, … from the current hypothesis are
// validated against the oracle one at a time in that order, candidate ci of
// a radius drawing its RNG from seedBase+ci; the first candidate that passes
// is committed. It returns false when the Hamming budget is exhausted. A
// candidate that hits a terminal oracle error is skipped — a repaired key
// beats reporting the failure — but with no candidate passing the
// lowest-index error is surfaced.
func (a *Attack) errorCorrection(groupSites, groupBits []int, rng *rand.Rand) (bool, error) {
	// Candidate pool: lowest-confidence bits first.
	pool := append([]int(nil), groupBits...)
	sort.SliceStable(pool, func(i, j int) bool {
		return a.confidence[pool[i]] < a.confidence[pool[j]]
	})
	if len(pool) > a.cfg.CorrectionPool {
		pool = pool[:a.cfg.CorrectionPool]
	}
	var crng *rand.Rand
	for h := 1; h <= a.cfg.MaxCorrectionHamming && h <= len(pool); h++ {
		combos := combinations(len(pool), h)
		seedBase := rng.Int63()
		var firstErr error
		for ci, combo := range combos {
			crng = reseed(crng, seedBase+int64(ci))
			cand := a.applier.clone(a.white)
			for _, pi := range combo {
				si := pool[pi]
				pn := a.spec.Neurons[si]
				a.applier.apply(cand, pn, si, !a.applier.read(cand, pn, si))
			}
			valid, err := a.keyVectorValidation(cand, groupSites, crng)
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			if !valid {
				continue
			}
			for _, pi := range combo {
				si := pool[pi]
				bit := !a.applier.read(a.white, a.spec.Neurons[si], si)
				a.setBit(si, bit, 1, OriginCorrection)
			}
			a.event("corrected", obs.Int("hamming", h), obs.Int("candidates", len(combos)))
			a.log.Info("error correction committed", "hamming", h, "flipped", h)
			return true, nil
		}
		if firstErr != nil {
			return false, firstErr
		}
	}
	return false, nil
}

// combinations enumerates all k-subsets of {0,…,n−1} in lexicographic
// order, which — applied to a confidence-sorted pool — tries the least
// trusted bits first, as §3.8 prescribes.
func combinations(n, k int) [][]int {
	var out [][]int
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		out = append(out, append([]int(nil), idx...))
		// Advance.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return out
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}
