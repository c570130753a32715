package core

import (
	"math"
	"math/rand"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/tensor"
)

// hypothesisTestBit decides one §3.9 variant key bit by
// candidate-hyperplane testing: under each hypothesis b it locates a
// hyperplane witness the other hypothesis cannot explain, then asks the
// oracle which witness shows a kink.
//
//   - bias-shift and weight-perturbation keys move the protected neuron's
//     own hyperplane, so each key hypothesis predicts a different critical
//     point for that neuron and the oracle's kink location selects the
//     hypothesis directly;
//   - a scaling key leaves the neuron's hyperplane in place but, once
//     propagated into the next layer's columns (the paper's fan-out-cone
//     reduction), moves the hyperplanes of downstream neurons in regions
//     where the protected neuron is active — so the same kink test applied
//     one layer later selects the hypothesis.
//
// Persistent transient oracle failures degrade the bit to ⊥ (the
// validation/correction loop repairs it); terminal errors propagate.
func (a *Attack) hypothesisTestBit(specIdx int, rng *rand.Rand) (bitValue, error) {
	bsp := a.phase.Child("bit", obs.Int("bit", specIdx))
	var bit bitValue
	var err error
	if a.ownHyperplaneMoves() {
		bit, err = a.ownHyperplaneTest(bsp, specIdx, rng)
	} else {
		bit, err = a.fanOutTest(bsp, specIdx, rng)
	}
	if err != nil {
		bsp.End(obs.String("outcome", "degraded"))
		return bitBottom, a.fallthroughBottom(err)
	}
	bsp.End(obs.String("outcome", bit.String()))
	return bit, nil
}

// ownHyperplaneTest handles bias-shift and weight-perturbation bits: the
// two hypotheses predict two distinct hyperplanes for the protected neuron
// itself.
func (a *Attack) ownHyperplaneTest(bsp *obs.Span, specIdx int, rng *rand.Rand) (bitValue, error) {
	pn := a.spec.Neurons[specIdx]
	gate := a.gatingReLU(pn.Site)
	if gate < 0 {
		return bitBottom, nil // not directly gated: leave to validation/correction
	}
	cands := a.hypothesisPair(specIdx)
	for try := 0; try < a.cfg.MaxCriticalTries; try++ {
		kink := [2]bool{}
		found := [2]bool{}
		for b := 0; b < 2; b++ {
			x0, ok := a.distinguishableCritical(cands[b], cands[1-b], nil, pn.Site, pn.Index, rng)
			if !ok {
				continue
			}
			found[b] = true
			var err error
			kink[b], err = a.kinkAt(bsp, cands[b], x0, gate, pn.Index, rng)
			if err != nil {
				return bitBottom, err
			}
		}
		if bit := kinkDecision(found, kink); bit != bitBottom {
			return bit, nil
		}
	}
	return bitBottom, nil
}

// kinkDecision reads one round of witness tests: found[b] reports whether
// hypothesis b's witness exists, kink[b] whether the oracle kinks there.
// Two-sided disagreement decides outright; a one-sided witness decides on
// positive evidence only (the oracle kinks where just one hypothesis
// predicts a kink) — absence of a kink is not trusted, since the witness
// may be unobservable through the remaining layers.
func kinkDecision(found, kink [2]bool) bitValue {
	switch {
	case found[0] && found[1] && kink[0] != kink[1]:
		if kink[1] {
			return bitOne
		}
		return bitZero
	case found[0] && !found[1] && kink[0]:
		return bitZero
	case found[1] && !found[0] && kink[1]:
		return bitOne
	}
	return bitBottom
}

// fanOutTest handles scaling bits: it probes neurons of the next lockable
// layer inside the protected neuron's fan-out cone, at witnesses where the
// protected neuron is active (so the hypotheses actually disagree).
func (a *Attack) fanOutTest(bsp *obs.Span, specIdx int, rng *rand.Rand) (bitValue, error) {
	pn := a.spec.Neurons[specIdx]
	next := pn.Site + 1
	if next >= a.white.NumFlipSites() {
		return a.lastLayerSlopeTest(bsp, specIdx, rng)
	}
	gate := a.gatingReLU(next)
	if gate < 0 {
		return bitBottom, nil
	}
	cands := a.hypothesisPair(specIdx)
	width := a.white.Flips()[next].N
	probes := rng.Perm(width)
	if len(probes) > a.cfg.MaxCriticalTries*3 {
		probes = probes[:a.cfg.MaxCriticalTries*3]
	}
	for _, k := range probes {
		kink := [2]bool{}
		found := [2]bool{}
		for b := 0; b < 2; b++ {
			x0, ok := a.distinguishableCritical(cands[b], cands[1-b], &pn, next, k, rng)
			if !ok {
				continue
			}
			found[b] = true
			var err error
			kink[b], err = a.kinkAt(bsp, cands[b], x0, gate, k, rng)
			if err != nil {
				return bitBottom, err
			}
		}
		if bit := kinkDecision(found, kink); bit != bitBottom {
			return bit, nil
		}
	}
	return bitBottom, nil
}

// lastLayerSlopeTest decides a scaling bit on the final lockable layer: at
// a critical point of the neuron, moving along the pre-image direction
// changes only this neuron, and since no unknown keys remain downstream,
// each hypothesis predicts the oracle's response exactly.
func (a *Attack) lastLayerSlopeTest(bsp *obs.Span, specIdx int, rng *rand.Rand) (bitValue, error) {
	pn := a.spec.Neurons[specIdx]
	cands := a.hypothesisPair(specIdx)
	for try := 0; try < a.cfg.MaxCriticalTries; try++ {
		x0, ok := searchCriticalPoint(a.white, pn.Site, pn.Index, a.cfg, rng)
		if !ok {
			return bitBottom, nil
		}
		v, ok := a.preimage(x0, pn.Site, pn.Index)
		if !ok {
			continue
		}
		eps := a.cfg.probeStep(a.cfg.Epsilon)
		xp := tensor.VecClone(x0)
		tensor.AXPY(eps, v, xp)
		// Both slope points ride one oracle round, in the scalar order
		// (xp before x0).
		xb := tensor.GetMatrix(2, len(x0))
		xb.SetRow(0, xp)
		xb.SetRow(1, x0)
		yb, qerr := a.multi(bsp, xb)
		tensor.PutMatrix(xb)
		if qerr != nil {
			return bitBottom, qerr
		}
		dOracle := tensor.VecSub(yb.Row(0), yb.Row(1))
		tensor.PutMatrix(yb)
		var miss [2]float64
		for b := 0; b < 2; b++ {
			dPred := tensor.VecSub(a.predict(cands[b], xp), a.predict(cands[b], x0))
			miss[b] = tensor.NormInf(tensor.VecSub(dPred, dOracle))
		}
		if bit := a.decisive(miss); bit != bitBottom {
			return bit, nil
		}
	}
	return bitBottom, nil
}

// decisive picks the hypothesis whose prediction misses the oracle by less,
// miss[b] being hypothesis b's largest miss, when the margin is decisive:
// the other miss is DecisionRatio times larger and a real change
// (absChange). Otherwise it returns ⊥.
func (a *Attack) decisive(miss [2]float64) bitValue {
	lo, hi := miss[0], miss[1]
	if lo > hi {
		lo, hi = hi, lo
	}
	if hi > a.cfg.DecisionRatio*lo && hi > a.absChange() {
		if miss[0] < miss[1] {
			return bitZero
		}
		return bitOne
	}
	return bitBottom
}

// settleUnknown decides, against the oracle, every bit that no test
// decided (origin unknown: a variant bit its hypothesis tests left at ⊥
// and validation accepted at its default). Validation passes such a bit
// whenever its two hypotheses agree on the probed hyperplanes, and the
// inputs where they disagree are rare — they form a cone, often under 1%
// of the input box — so the final check's few samples miss them too. For
// each such bit, among up to LearnQueries×ValidationSamples uniform
// white-box draws it keeps the first ValidationSamples inputs where the
// hypotheses' outputs differ by a real change (absChange), sends them as
// one batch, and keeps the hypothesis that matches the oracle decisively,
// as a correction. A bit it cannot settle stays unknown, which fails Run;
// so does a terminal oracle error, while a transient one that outlasts the
// retries only leaves the bit unsettled.
func (a *Attack) settleUnknown(rng *rand.Rand) error {
	p := a.white.InSize()
	draws := a.cfg.LearnQueries * a.cfg.ValidationSamples
	for i, o := range a.origins {
		if o != OriginUnknown {
			continue
		}
		cands := a.hypothesisPair(i)
		var xs [][]float64
		for d := 0; d < draws && len(xs) < a.cfg.ValidationSamples; d++ {
			x := randomPoint(p, a.cfg.InputLim, rng)
			if tensor.NormInf(tensor.VecSub(a.predict(cands[0], x), a.predict(cands[1], x))) > a.absChange() {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			continue
		}
		xb := tensor.GetMatrix(len(xs), p)
		for k, x := range xs {
			xb.SetRow(k, x)
		}
		sp := a.phase.Child("settle", obs.Int("bit", i), obs.Int("inputs", len(xs)))
		yb, err := a.multi(sp, xb)
		tensor.PutMatrix(xb)
		if err != nil {
			sp.End(obs.String("outcome", "degraded"))
			if err = a.fallthroughBottom(err); err != nil {
				return err
			}
			continue
		}
		var miss [2]float64
		for k, x := range xs {
			for b := range miss {
				miss[b] = math.Max(miss[b], tensor.NormInf(tensor.VecSub(a.predict(cands[b], x), yb.Row(k))))
			}
		}
		tensor.PutMatrix(yb)
		bit := a.decisive(miss)
		sp.End(obs.String("outcome", bit.String()))
		if bit != bitBottom {
			a.setBit(i, bit == bitOne, 1, OriginCorrection)
		}
	}
	return nil
}

// predict is net's answer to x in the oracle's output space: its logits,
// or their softmax when the oracle exposes probabilities.
func (a *Attack) predict(net *nn.Network, x []float64) []float64 {
	y := net.Forward(x)
	if a.orc.Softmax() {
		return tensor.Softmax(y)
	}
	return y
}

// hypothesisPair clones the white box under both values of one bit.
func (a *Attack) hypothesisPair(specIdx int) [2]*nn.Network {
	pn := a.spec.Neurons[specIdx]
	var out [2]*nn.Network
	for b := 0; b < 2; b++ {
		c := a.applier.clone(a.white)
		a.applier.apply(c, pn, specIdx, b == 1)
		out[b] = c
	}
	return out
}

// distinguishableCritical finds a critical point of (site, idx) on net such
// that the alternative hypothesis net is far from critical there — i.e. a
// witness only one hypothesis can explain. With up non-nil (scaling's
// fan-out test, up the protected upstream neuron), the witness must also
// satisfy two activity requirements:
//
//   - the protected upstream neuron is active (otherwise α^K is muted by
//     the ReLU and the hypotheses coincide), and
//   - every OTHER still-undecided protected neuron of the same flip site is
//     inactive. Both hypothesis clones carry default values for those bits;
//     if such a neuron were active, its (possibly wrong) scaling would move
//     the downstream hyperplane on both clones, so even the correct
//     hypothesis would predict a kink location the oracle does not have.
//     With the cone restricted to regions where only the bit under test
//     fans out, the clones agree with the true function up to that single
//     bit, and the kink test is sound.
func (a *Attack) distinguishableCritical(net, alt *nn.Network, up *hpnn.ProtectedNeuron, site, idx int, rng *rand.Rand) ([]float64, bool) {
	for try := 0; try < a.cfg.MaxCriticalTries; try++ {
		x0, ok := searchCriticalPoint(net, site, idx, a.cfg, rng)
		if !ok {
			return nil, false
		}
		if up != nil && (postAct(net, x0, up.Site, up.Index) <= 0 || !a.othersMuted(net, x0, *up)) {
			continue
		}
		if math.Abs(postAct(alt, x0, site, idx)) > a.variantMargin() {
			return x0, true
		}
	}
	return nil, false
}

// othersMuted reports whether every undecided protected neuron of up's flip
// site other than up itself is inactive (ReLU-muted) at x0.
func (a *Attack) othersMuted(net *nn.Network, x0 []float64, up hpnn.ProtectedNeuron) bool {
	for si, pn := range a.spec.Neurons {
		if pn.Site != up.Site || pn.Index == up.Index || a.decided[si] {
			continue
		}
		if postAct(net, x0, pn.Site, pn.Index) > 0 {
			return false
		}
	}
	return true
}

// kinkAt runs the control-calibrated second-difference test of §3.7 at a
// witness x° of ReLU input (reluSite, idx) on net.
func (a *Attack) kinkAt(sp *obs.Span, net *nn.Network, x0 []float64, reluSite, idx int, rng *rand.Rand) (bool, error) {
	v := a.voteDirection(net, x0, reluSite, idx, rng)
	d := a.cfg.probeStep(a.cfg.ValidationDelta)
	ctrl := tensor.VecClone(x0)
	tensor.AXPY(3*d, v, ctrl)
	hits, err := a.kinkVotes(sp, []voteProbe{{x0: x0, ctrl: ctrl, v: v}}, d)
	if err != nil {
		return false, err
	}
	return hits[0], nil
}

// gatingReLU returns the ReLU site that directly rectifies the given flip
// site's output, or -1.
func (a *Attack) gatingReLU(flipSite int) int {
	layout := a.white.SiteLayout()
	for i, ev := range layout {
		if ev.IsFlip && ev.ID == flipSite && i+1 < len(layout) {
			next := layout[i+1]
			if !next.IsFlip && next.Seq == ev.Seq && next.Pos == ev.Pos+1 {
				return next.ID
			}
		}
	}
	return -1
}

// variantMargin is the minimum hypothesis separation accepted at a witness.
func (a *Attack) variantMargin() float64 {
	m := math.Abs(a.spec.Alpha) / 4
	if a.spec.Scheme == hpnn.Scaling {
		m = a.cfg.ValidationDelta * 10
	}
	if m < a.cfg.ValidationDelta*4 {
		m = a.cfg.ValidationDelta * 4
	}
	return m
}
