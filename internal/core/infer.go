package core

import (
	"math"
	"math/rand"

	"dnnlock/internal/obs"
	"dnnlock/internal/tensor"
)

// bitValue is the tri-state outcome of Algorithm 1.
type bitValue int8

const (
	bitBottom bitValue = -1 // ⊥: the algebraic path could not decide
	bitZero   bitValue = 0
	bitOne    bitValue = 1
)

// String names the outcome for trace annotations.
func (b bitValue) String() string {
	switch b {
	case bitZero:
		return "zero"
	case bitOne:
		return "one"
	default:
		return "bottom"
	}
}

// keyBitInference implements Algorithm 1 for the protected neuron at spec
// position bitIdx. It finds a critical point of the neuron, computes the
// product weight matrix Â^(i) (Formulas 2–3 when the network is a
// sequential piecewise-linear stack, the exact JVP Jacobian otherwise),
// solves Â·v = e_j by minimum-norm least squares, and compares the oracle's
// reaction to x° ± ε·v (Lemma 2). It returns ⊥ when no pre-image exists
// (expansive location, §3.4), when the neuron is not sensitized to the
// output, or when responses stay ambiguous across retries. A non-nil error
// is terminal (budget exhaustion, persistent device fault) and aborts the
// run; transient failures that outlast the retry budget degrade to ⊥
// instead.
func (a *Attack) keyBitInference(bitIdx int, rng *rand.Rand) (bitValue, error) {
	bsp := a.phase.Child("bit", obs.Int("bit", bitIdx))
	bit, err := a.keyBitInferenceSpanned(bsp, bitIdx, rng)
	bsp.End(obs.String("outcome", bit.String()))
	return bit, err
}

func (a *Attack) keyBitInferenceSpanned(bsp *obs.Span, bitIdx int, rng *rand.Rand) (bitValue, error) {
	pn := a.spec.Neurons[bitIdx]
	// Static expansiveness: a site wider than the input space can never
	// have full row rank, so Â is not onto and no basis pre-image exists
	// (§3.4). Skip the Jacobian work outright.
	if a.white.Flips()[pn.Site].N > a.white.InSize() {
		return bitBottom, nil
	}
	for try := 0; try < a.cfg.MaxCriticalTries; try++ {
		x0, ok := searchCriticalPoint(a.white, pn.Site, pn.Index, a.cfg, rng)
		if !ok {
			return bitBottom, nil
		}
		v, ok := a.preimage(x0, pn.Site, pn.Index)
		if !ok {
			// Rank deficiency can be mask-dependent; retry from another
			// region before giving up.
			continue
		}
		bit, ok, err := a.probeBit(bsp, x0, v, pn.Site, pn.Index)
		if err != nil {
			return bitBottom, a.fallthroughBottom(err)
		}
		if ok {
			return bit, nil
		}
	}
	return bitBottom, nil
}

// preimage solves Â^(site)·v = e_idx at x0 and checks the residual. Â is
// the exact Jacobian of the unsigned pre-activation (Formulas 2–3 on a
// sequential MLP, §4.1's built-in Jacobian on any other topology).
func (a *Attack) preimage(x0 []float64, site, idx int) ([]float64, bool) {
	_, aHat := a.white.PreActJacobian(x0, site)
	e := tensor.Basis(aHat.Rows, idx)
	res := tensor.LeastSquares(aHat, e)
	tensor.PutMatrix(aHat) // the solution does not alias Â
	if res.RelRes > a.cfg.ResidualTol {
		return nil, false
	}
	return res.X, true
}

// probeBit performs the oracle queries of Algorithm 1 lines 9–10 with the
// robust ratio test, after verifying on the white box that the ε-step does
// not leave the linear region (the ε-neighborhood guarantee of §3.3).
//
// Under a declared-noisy oracle the three-point probe is repeated
// cfg.ProbeVotes times and the per-repeat outcomes are majority-voted; a
// fresh noise draw attends each repeat (oracle.Noisy is input-addressed with
// an occurrence counter), so independent votes average the noise out. With
// the default ProbeVotes=1 the loop degenerates to the paper's single-shot
// probe, issuing the same three queries in the same order.
func (a *Attack) probeBit(sp *obs.Span, x0, v []float64, site, idx int) (bitValue, bool, error) {
	eps := a.cfg.probeStep(a.cfg.Epsilon)
	for shrink := 0; shrink < 4; shrink++ {
		xp := tensor.VecClone(x0)
		tensor.AXPY(eps, v, xp)
		xm := tensor.VecClone(x0)
		tensor.AXPY(-eps, v, xm)
		if !a.stepStaysClean(x0, xp, xm, site, idx, eps) {
			eps /= 8
			continue
		}
		votes := a.cfg.ProbeVotes
		var tally [3]int // bitZero, bitOne, ambiguous
		for vi := 0; vi < votes; vi++ {
			// One probe group per vote: {x°, x°+εv, x°−εv} travel as a
			// single oracle round through the planner.
			xb := tensor.GetMatrix(3, len(x0))
			xb.SetRow(0, x0)
			xb.SetRow(1, xp)
			xb.SetRow(2, xm)
			y, err := a.multi(sp, xb)
			tensor.PutMatrix(xb)
			if err != nil {
				return bitBottom, false, err
			}
			dp := tensor.NormInf(tensor.VecSub(y.Row(1), y.Row(0)))
			dm := tensor.NormInf(tensor.VecSub(y.Row(2), y.Row(0)))
			tensor.PutMatrix(y)
			switch {
			case dp > a.absChange() && dp > a.cfg.DecisionRatio*dm:
				// Output moves on the +v side only: the unsigned positive
				// side is the active side, so the sign is not flipped.
				tally[0]++
			case dm > a.absChange() && dm > a.cfg.DecisionRatio*dp:
				tally[1]++
			default:
				// Both sides quiet (not sensitized) or both move comparably
				// (bypass paths): ambiguous here.
				tally[2]++
			}
		}
		switch {
		case 2*tally[0] > votes:
			return bitZero, true, nil
		case 2*tally[1] > votes:
			return bitOne, true, nil
		case tally[2] == votes:
			// Unanimously ambiguous: not sensitized at this witness.
			return bitBottom, false, nil
		default:
			// The votes split between outcomes — the noise is winning. Count
			// the degradation and let the learning attack take the bit.
			if votes > 1 {
				a.degraded.Add(1)
				a.event("degraded", obs.String("reason", "vote_split"),
					obs.Int("site", site), obs.Int("idx", idx))
				a.log.Warn("probe votes split: degrading to ⊥",
					"site", site, "idx", idx,
					"zero", tally[0], "one", tally[1], "ambiguous", tally[2])
			}
			return bitBottom, false, nil
		}
	}
	return bitBottom, false, nil
}

// stepStaysClean checks, on the white box, that moving from x0 to xp/xm
// changes only the target coordinate of the site's pre-activation — i.e.
// the probes stay inside the ε-neighborhood of Lemma 2, where e_{i,j} is
// orthogonal to every other hidden coordinate. The check transfers to the
// oracle because the unknown site-s signs only negate coordinates, which
// preserves the magnitude of their movement.
func (a *Attack) stepStaysClean(x0, xp, xm []float64, site, idx int, eps float64) bool {
	tr0 := a.white.ForwardTraceTo(x0, site)
	trp := a.white.ForwardTraceTo(xp, site)
	trm := a.white.ForwardTraceTo(xm, site)
	// Off-target coordinates of u_site must stay put relative to ε.
	limit := eps / 50
	for k := range tr0.Pre[site] {
		if k == idx {
			continue
		}
		if math.Abs(trp.Pre[site][k]-tr0.Pre[site][k]) > limit ||
			math.Abs(trm.Pre[site][k]-tr0.Pre[site][k]) > limit {
			return false
		}
	}
	// The target coordinate must actually straddle the boundary.
	return trp.Pre[site][idx] > eps/2 && trm.Pre[site][idx] < -eps/2
}
