package core

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// RunVariant attacks the §3.9 locking variants. Every variant reduces to
// candidate-hyperplane testing:
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
// Bits the tests cannot decide are defaulted and repaired by the shared
// validation / error-correction loop of Algorithm 2.
func RunVariant(whiteBox *nn.Network, spec hpnn.LockSpec, orc oracle.Interface, cfg Config) (*Result, error) {
	if spec.Scheme == hpnn.Negation {
		return Run(whiteBox, spec, orc, cfg)
	}
	a := New(whiteBox, spec, orc, cfg)
	return a.runVariant()
}

func (a *Attack) runVariant() (*Result, error) {
	//lint:ignore determinism telemetry timer for Result.Time; the value never feeds the numerics
	start := time.Now()
	startQ := a.orc.Queries()
	startR := a.orc.Rounds()
	startS := simElapsed(a.orc)
	root := startRoot(a.cfg, "attack_variant", obs.Int("bits", a.spec.NumBits()),
		obs.Int("scheme", int(a.spec.Scheme)))
	a.root = root
	defer root.End() // idempotent: the success path ends it with annotations
	rng := rand.New(rand.NewSource(a.cfg.Seed))
	bySite := a.spec.SiteBits()

	var reports []SiteReport
	var pending sitePending
	for _, site := range a.orderedSites() {
		rep, err := a.runVariantSite(root, site, bySite[site], &pending, rng)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
	}

	fsp := root.Child("final_check")
	eq, eqErr := a.directCompare(fsp, a.white, rng)
	fsp.End(obs.Bool("equivalent", eq))
	ledger := a.bd.Snapshot()
	res := &Result{
		Key:     a.CurrentKey(),
		Origins: append([]BitOrigin(nil), a.origins...),
		Queries: a.orc.Queries() - startQ,
		Rounds:  a.orc.Rounds() - startR,
		//lint:ignore determinism telemetry: elapsed wall time reported to the operator, not used in computation
		Time:          time.Since(start),
		SimTime:       simElapsed(a.orc) - startS,
		Breakdown:     a.bd,
		QueriesByProc: ledger.Queries,
		RoundsByProc:  ledger.Rounds,
		SimByProc:     ledger.Sim,
		Sites:         reports,
		Equivalent:    eq,
		Degraded:      int(a.degraded.Load()),
		BisectRounds:  a.crit.rounds.Load(),
		BisectProbes:  a.crit.probes.Load(),
	}
	root.End(obs.Int64("queries", res.Queries), obs.Int64("rounds", res.Rounds),
		obs.Bool("equivalent", res.Equivalent))
	if eqErr != nil {
		return res, fmt.Errorf("core: variant equivalence check: %w", eqErr)
	}
	if !res.Equivalent {
		return res, fmt.Errorf("core: recovered variant key is not functionally equivalent to the oracle")
	}
	return res, nil
}

// runVariantSite attacks the protected bits of one flip site of the
// variant scheme: hypothesis tests on every bit, then the validation /
// correction loop over the pending group. Mirrors runSite, including its
// span discipline: the success paths end the site span with annotations,
// and the deferred End (idempotent) covers the error returns so an aborted
// run still exports the partial site record.
func (a *Attack) runVariantSite(root *obs.Span, site int, bits []int, pending *sitePending, rng *rand.Rand) (SiteReport, error) {
	rep := SiteReport{Site: site, Bits: len(bits)}
	ssp := root.Child("site", obs.Int("site", site), obs.Int("bits", len(bits)))
	defer ssp.End()

	inferred := make([]bitValue, len(bits))
	var inferErr error
	a.trackProc(ssp, metrics.ProcKeyBitInference, func() {
		inferErr = a.parallelForErr(len(bits), rng.Int63(), func(i int, wrng *rand.Rand) error {
			var err error
			inferred[i], err = a.hypothesisTestBit(bits[i], wrng)
			return err
		})
	})
	if inferErr != nil {
		return rep, fmt.Errorf("core: variant site %d hypothesis tests: %w", site, inferErr)
	}
	for i, v := range inferred {
		switch v {
		case bitZero, bitOne:
			a.setBit(bits[i], v == bitOne, 1, OriginAlgebraic)
			rep.Algebraic++
		default:
			// Undecided: default to 0 with no confidence; the
			// validation / correction loop repairs mistakes.
			a.setBit(bits[i], false, 0, OriginUnknown)
		}
	}
	a.log.Debug("variant site tested", "site", site, "bits", len(bits),
		"decided", rep.Algebraic)

	pending.bits = append(pending.bits, bits...)
	pending.sites = append(pending.sites, site)
	if _, mode := a.validationProbe(pending.sites); mode == modeDefer {
		ssp.End(obs.Bool("deferred", true))
		return rep, nil
	}
	valid := false
	for round := 0; round <= a.cfg.MaxCorrectionRounds; round++ {
		var valErr error
		a.trackProc(ssp, metrics.ProcKeyVectorValidation, func() {
			rep.ValidationRuns++
			valid, valErr = a.keyVectorValidation(a.white, pending.sites, rng)
		})
		if valErr != nil {
			return rep, fmt.Errorf("core: variant site %d key_vector_validation: %w", site, valErr)
		}
		if valid {
			break
		}
		fixed := false
		var corrErr error
		a.trackProc(ssp, metrics.ProcErrorCorrection, func() {
			fixed, corrErr = a.errorCorrection(pending.sites, a.decidedBits(), rng)
		})
		if corrErr != nil {
			return rep, fmt.Errorf("core: variant site %d error_correction: %w", site, corrErr)
		}
		if fixed {
			// The committed candidate already passed validation inside
			// errorCorrection.
			rep.Corrected++
			valid = true
			break
		}
		if round == a.cfg.MaxCorrectionRounds {
			return rep, fmt.Errorf("core: variant site %d failed validation", site)
		}
	}
	if !valid {
		return rep, fmt.Errorf("core: variant site %d failed validation", site)
	}
	pending.bits = pending.bits[:0]
	pending.sites = pending.sites[:0]
	ssp.End(obs.Int("decided", rep.Algebraic), obs.Int("corrected", rep.Corrected))
	return rep, nil
}

// hypothesisTestBit decides one variant key bit by candidate-hyperplane
// testing: under each hypothesis b it locates a hyperplane witness the
// other hypothesis cannot explain, then asks the oracle which witness shows
// a kink. Persistent transient oracle failures degrade the bit to ⊥ (the
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
			x0, ok := a.distinguishableCritical(cands[b], cands[1-b], pn.Site, pn.Index, rng)
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
		switch {
		case found[0] && found[1] && kink[0] != kink[1]:
			if kink[1] {
				return bitOne, nil
			}
			return bitZero, nil
		case found[0] && !found[1] && kink[0]:
			return bitZero, nil
		case found[1] && !found[0] && kink[1]:
			return bitOne, nil
		}
	}
	return bitBottom, nil
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
		kinkV := [2]bool{}
		found := [2]bool{}
		for b := 0; b < 2; b++ {
			x0, ok := a.activeDistinguishableCritical(cands[b], cands[1-b], pn, next, k, rng)
			if !ok {
				continue
			}
			found[b] = true
			var err error
			kinkV[b], err = a.kinkAt(bsp, cands[b], x0, gate, k, rng)
			if err != nil {
				return bitBottom, err
			}
		}
		// Two-sided disagreement decides outright; a one-sided witness
		// decides on positive evidence only (the oracle kinks where just one
		// hypothesis predicts a kink), mirroring ownHyperplaneTest — absence
		// of a kink is not trusted, since the witness may be unobservable
		// through the remaining layers.
		switch {
		case found[0] && found[1] && kinkV[0] != kinkV[1]:
			if kinkV[1] {
				return bitOne, nil
			}
			return bitZero, nil
		case found[0] && !found[1] && kinkV[0]:
			return bitZero, nil
		case found[1] && !found[0] && kinkV[1]:
			return bitOne, nil
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
		err := [2]float64{}
		for b := 0; b < 2; b++ {
			fwd := func(x []float64) []float64 {
				y := cands[b].Forward(x)
				if a.orc.Softmax() {
					return tensor.Softmax(y)
				}
				return y
			}
			dPred := tensor.VecSub(fwd(xp), fwd(x0))
			err[b] = tensor.NormInf(tensor.VecSub(dPred, dOracle))
		}
		// Require a decisive margin between the hypotheses.
		lo, hi := err[0], err[1]
		if lo > hi {
			lo, hi = hi, lo
		}
		if hi > a.cfg.DecisionRatio*lo && hi > a.absChange() {
			if err[0] < err[1] {
				return bitZero, nil
			}
			return bitOne, nil
		}
	}
	return bitBottom, nil
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
// witness only one hypothesis can explain.
func (a *Attack) distinguishableCritical(net, alt *nn.Network, site, idx int, rng *rand.Rand) ([]float64, bool) {
	for try := 0; try < a.cfg.MaxCriticalTries; try++ {
		x0, ok := searchCriticalPoint(net, site, idx, a.cfg, rng)
		if !ok {
			return nil, false
		}
		if math.Abs(postAct(alt, x0, site, idx)) > a.variantMargin() {
			return x0, true
		}
	}
	return nil, false
}

// activeDistinguishableCritical is distinguishableCritical with two extra
// scaling-specific requirements on the witness:
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
func (a *Attack) activeDistinguishableCritical(net, alt *nn.Network, up hpnn.ProtectedNeuron, site, idx int, rng *rand.Rand) ([]float64, bool) {
	for try := 0; try < a.cfg.MaxCriticalTries; try++ {
		x0, ok := searchCriticalPoint(net, site, idx, a.cfg, rng)
		if !ok {
			return nil, false
		}
		if postAct(net, x0, up.Site, up.Index) <= 0 {
			continue
		}
		if !a.othersMuted(net, x0, up) {
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
