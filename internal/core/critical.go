package core

import (
	"math"
	"math/rand"

	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

// postAct evaluates the post-flip value of neuron (site, idx) on the given
// network — the actual ReLU input — stopping the forward pass early. Its
// zero set is the neuron's hyperplane: for negation and scaling keys it
// coincides with the zero set of the unsigned pre-activation (the flip
// preserves zeros), while for the bias-shift and weight-perturbation
// variants it tracks the hypothesis currently applied to net.
func postAct(net *nn.Network, x []float64, site, idx int) float64 {
	return net.PostAt(x, site, idx)
}

// searchCriticalPoint implements §3.5 on an arbitrary network: it draws
// random lines through the input box, samples the target neuron's ReLU
// input along each line, and bisects the first sign change down to
// |u| ≤ CriticalTol. By Lemma 1 the hyperplane depends only on the
// already-recovered prefix keys, which the caller has written into net.
//
// It returns the witness x° and whether the search succeeded.
func searchCriticalPoint(net *nn.Network, site, idx int, cfg Config, rng *rand.Rand) ([]float64, bool) {
	u := func(x []float64) float64 { return postAct(net, x, site, idx) }
	return searchZero(u, net.InSize(), cfg, rng)
}

// searchCriticalPointReLU finds a witness where the input of ReLU neuron
// (reluSite, idx) crosses zero — a point where the network function bends.
func searchCriticalPointReLU(net *nn.Network, reluSite, idx int, cfg Config, rng *rand.Rand) ([]float64, bool) {
	u := func(x []float64) float64 {
		return net.ReluInAt(x, reluSite, idx)
	}
	return searchZero(u, net.InSize(), cfg, rng)
}

// searchZero looks for a sign change of u over the input box and bisects
// it to a zero. Rather than scanning fixed lines, it draws random points at
// several amplitude scales until it holds one positive and one negative
// exemplar — a strictly stronger bracketing strategy that copes with the
// skewed pre-activation distributions of trained networks — and then
// bisects the segment between them (a zero exists on it by continuity).
// The probe function u must not retain its argument: sample points are
// staged in one pooled buffer and refilled between calls.
func searchZero(u func([]float64) float64, p int, cfg Config, rng *rand.Rand) ([]float64, bool) {
	budget := cfg.MaxLineTries * cfg.LineSamples
	scales := [...]float64{1, 0.25, 2, 0.5, 4}
	var pos, neg []float64
	x := tensor.GetVec(p)
	defer tensor.PutVec(x)
	for i := 0; i < budget; i++ {
		fillRandomPoint(x, cfg.InputLim*scales[i%len(scales)], rng)
		switch v := u(x); {
		case v > 0 && pos == nil:
			pos = tensor.VecClone(x)
		case v < 0 && neg == nil:
			neg = tensor.VecClone(x)
		}
		if pos != nil && neg != nil {
			return bisectSegment(u, pos, neg, cfg)
		}
	}
	return nil, false
}

// bisectSegment narrows the segment a→b, with u(a) > 0 > u(b), down to
// |u| ≤ CriticalTol by binary bisection: one probe per round, halving the
// bracket. Each round is reported to cfg.critStats.
func bisectSegment(u func([]float64) float64, a, b []float64, cfg Config) ([]float64, bool) {
	dir := tensor.VecSub(b, a)
	// One pooled midpoint buffer for the whole bisection; the witness is
	// cloned out on success so the caller owns a plain heap slice.
	xm := tensor.GetVec(len(a))
	defer tensor.PutVec(xm)
	at := func(t float64) {
		copy(xm, a)
		tensor.AXPY(t, dir, xm)
	}
	lo, hi := 0.0, 1.0
	ulo := u(a)
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		at(mid)
		um := u(xm)
		cfg.critStats.count()
		if math.Abs(um) <= cfg.CriticalTol {
			return tensor.VecClone(xm), true
		}
		if signChange(ulo, um) {
			hi = mid
		} else {
			lo, ulo = mid, um
		}
		if hi-lo < 1e-18 {
			// Interval exhausted at float resolution; accept the midpoint
			// if it is reasonably small.
			if math.Abs(um) <= math.Sqrt(cfg.CriticalTol) {
				return tensor.VecClone(xm), true
			}
			break
		}
	}
	return nil, false
}

func signChange(a, b float64) bool {
	return (a > 0 && b < 0) || (a < 0 && b > 0)
}

func randomPoint(p int, lim float64, rng *rand.Rand) []float64 {
	x := make([]float64, p)
	fillRandomPoint(x, lim, rng)
	return x
}

// fillRandomPoint draws the same point randomPoint would (identical rng
// consumption) into a caller-owned buffer.
func fillRandomPoint(x []float64, lim float64, rng *rand.Rand) {
	for i := range x {
		x[i] = (rng.Float64()*2 - 1) * lim
	}
}
