package core

import (
	"math/rand"
	"sort"

	"dnnlock/internal/geometry"
	"dnnlock/internal/hpnn"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/tensor"
)

// Validation probes the oracle where the network function actually bends:
// the zero sets of ReLU *inputs*. For a directly-gated lockable layer
// (dense/conv stacks) this coincides with the paper's "hyperplane induced
// by η_{i+1,j}"; for residual blocks, whose post-add rectifier mixes the
// body with the shortcut, it is the correct generalization — the flip
// output itself is not a kink there.
//
// A ReLU site is an admissible probe for a group of just-decided flip
// sites when every flip upstream of it is either already decided or is the
// flip it directly gates (whose negation/scaling bit cannot move the kink,
// Lemma 1). When no admissible-and-informative probe exists — e.g. between
// the two flips inside one residual block — validation is deferred and the
// sites are validated together at the block boundary.

// validation modes.
const (
	modeDefer  = iota // no admissible probe yet: postpone validation
	modeKink          // probe the next admissible ReLU site's kinks
	modeDirect        // all bits decided: compare outputs directly
)

// validationProbe selects how to validate the pending group of flip sites.
func (a *Attack) validationProbe(groupSites []int) (reluSite int, mode int) {
	if _, hasLater := a.nextSiteWithUndecided(); !hasLater {
		return 0, modeDirect
	}
	layout := a.white.SiteLayout()
	decidedFlip := a.decidedFlipSites()
	group := make(map[int]bool, len(groupSites))
	for _, s := range groupSites {
		group[s] = true
	}
	lastGroupEvent := -1
	for i, ev := range layout {
		if ev.IsFlip && group[ev.ID] {
			lastGroupEvent = i
		}
	}
	for i, ev := range layout {
		if ev.IsFlip || i <= lastGroupEvent {
			continue
		}
		admissible := true
		informative := false
		for j := 0; j < i; j++ {
			f := layout[j]
			if !f.IsFlip {
				continue
			}
			gates := f.Seq == ev.Seq && f.Pos == ev.Pos-1
			if !decidedFlip[f.ID] && !gates {
				admissible = false
				break
			}
			if group[f.ID] && !gates {
				informative = true
			}
		}
		if admissible && informative {
			return ev.ID, modeKink
		}
	}
	return 0, modeDefer
}

// decidedFlipSites reports, per flip site, whether all its protected bits
// are decided (unprotected sites count as decided).
func (a *Attack) decidedFlipSites() map[int]bool {
	out := make(map[int]bool, a.white.NumFlipSites())
	for s := 0; s < a.white.NumFlipSites(); s++ {
		out[s] = true
	}
	for i, pn := range a.spec.Neurons {
		if !a.decided[i] {
			out[pn.Site] = false
		}
	}
	return out
}

// keyVectorValidation checks the candidate key currently written into net
// for the pending group of sites (§3.7). The caller must have confirmed a
// probe exists via validationProbe. Every vote is first planned on the white
// box, in parallel (planVote); the planned probe groups then reach the
// oracle as one batch in vote order (sendVotes). Under the bias-shift and
// weight-perturbation variants the votes that batch did not confirm plan
// their alternative kink location and send it as a second batch. A non-nil
// error is terminal; a batch degraded by persistent transient failures
// abstains all its votes.
func (a *Attack) keyVectorValidation(net *nn.Network, groupSites []int, rng *rand.Rand) (bool, error) {
	reluSite, mode := a.validationProbe(groupSites)
	switch mode {
	case modeDirect:
		dsp := a.phase.ChildDetail("direct_compare")
		eq, err := a.directCompare(dsp, net, rng)
		dsp.End(obs.Bool("equivalent", eq))
		return eq, err
	case modeDefer:
		// Nothing to probe: treat as failure so the caller notices misuse.
		return false, nil
	}
	n := net.ReLUs()[reluSite].N
	sample := a.cfg.ValidationNeurons
	if sample > n {
		sample = n
	}
	neurons := rng.Perm(n)[:sample]
	d := a.cfg.probeStep(a.cfg.ValidationDelta)

	vsp := a.phase.ChildDetail("votes", obs.Int("relu", reluSite), obs.Int("neurons", sample))
	plans := make([]votePlan, len(neurons))
	seedBase := rng.Int63()
	a.parallelFor(len(plans), seedBase, func(i int, wrng *rand.Rand) {
		plans[i] = a.planVote(net, reluSite, neurons[i], d, seedBase+int64(i), wrng)
	})
	err := a.sendVotes(vsp, plans, 0, d)
	var retry []int
	for i, p := range plans {
		if p.rng != nil && !p.detected && !p.abstained {
			retry = append(retry, i)
		}
	}
	if err == nil && len(retry) > 0 {
		a.parallelFor(len(retry), 0, func(k int, _ *rand.Rand) {
			i := retry[k]
			p := &plans[i]
			alt := a.applier.clone(net)
			a.applier.apply(alt, a.spec.Neurons[p.alt], p.alt, true)
			p.probes[1] = a.planProbe(alt, reluSite, neurons[i], d, p.rng)
		})
		err = a.sendVotes(vsp, plans, 1, d)
	}
	if err != nil {
		vsp.End()
		return false, err
	}
	votes, participants := 0, 0
	for _, p := range plans {
		if p.abstained || (p.probes[0].x0 == nil && p.probes[1].x0 == nil) {
			continue
		}
		participants++
		if p.detected {
			votes++
		}
	}
	vsp.End(obs.Int("votes", votes), obs.Int("participants", participants))
	a.log.Debug("validation vote", "probe_relu", reluSite,
		"votes", votes, "participants", participants)
	if participants < 3 {
		// Too few observable hyperplanes to judge: suspicious, reject.
		return false, nil
	}
	return float64(votes) >= a.cfg.ValidationMajority*float64(participants), nil
}

// sendVotes sends kink location c of every vote that planned one as one
// oracle batch, in vote order, and records which votes the oracle
// confirmed. A batch degraded by persistent transient failures abstains its
// votes; any other failure is returned.
func (a *Attack) sendVotes(sp *obs.Span, plans []votePlan, c int, d float64) error {
	batch := make([]voteProbe, 0, len(plans))
	owners := make([]int, 0, len(plans))
	for i, p := range plans {
		if p.probes[c].x0 != nil {
			batch = append(batch, p.probes[c])
			owners = append(owners, i)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	hits, err := a.kinkVotes(sp, batch, d)
	if err != nil {
		if err = a.fallthroughBottom(err); err != nil {
			return err
		}
		for _, i := range owners {
			plans[i].abstained = true
		}
		return nil
	}
	for k, i := range owners {
		plans[i].detected = hits[k]
	}
	return nil
}

// nextSiteWithUndecided reports whether any spec bit is still undecided.
func (a *Attack) nextSiteWithUndecided() (int, bool) {
	for i, pn := range a.spec.Neurons {
		if !a.decided[i] {
			return pn.Site, true
		}
	}
	return 0, false
}

// voteProbe is the white-box half of one hyperplane vote at one candidate
// kink location: a critical point x0 that the white box confirms observable,
// the probe direction v and the control point ctrl. A nil x0 means the
// search found no observable critical point there.
type voteProbe struct{ x0, ctrl, v []float64 }

// votePlan is one hyperplane vote across validation's two batches. probes[0]
// is the kink location the candidate network predicts; probes[1] is the
// location under the flipped gating bit, planned only when the first batch
// does not confirm the vote. alt is that bit's spec index, and rng, non-nil
// only when such a bit exists, is the vote's own stream, left where the
// first plan ended.
type votePlan struct {
	probes              [2]voteProbe
	alt                 int
	rng                 *rand.Rand
	detected, abstained bool
}

// planVote does the white-box work of one hyperplane vote for ReLU input
// (reluSite, j) and issues no oracle query. The vote asks whether the oracle
// has a kink where the candidate network predicts one: kinkVotes measures
// the second difference of the oracle output across a white-box critical
// point x° along a direction that moves the input. A matching hyperplane
// bends the oracle output exactly at x°; a wrong prefix key leaves the
// oracle locally affine there. A control second difference away from x°
// calibrates background curvature (attention blocks) and unrelated
// hyperplanes.
//
// Under the bias-shift and weight-perturbation variants, the undecided key
// bit of the flip gating this ReLU moves the kink, so the vote may later
// try the other location; it then draws from a private stream seeded seed,
// identical to rng's, that outlives the worker's reuse of rng.
func (a *Attack) planVote(net *nn.Network, reluSite, j int, d float64, seed int64, rng *rand.Rand) votePlan {
	var p votePlan
	if a.ownHyperplaneMoves() {
		if gate := a.directGatedFlip(reluSite); gate >= 0 {
			if si, protected := a.specIndexOf(gate, j); protected && !a.decided[si] {
				p.alt = si
				p.rng = rand.New(rand.NewSource(seed))
				rng = p.rng
			}
		}
	}
	p.probes[0] = a.planProbe(net, reluSite, j, d, rng)
	return p
}

// planProbe finds an observable critical point of ReLU input (reluSite, j)
// on cand. A boundary may be unobservable in one region (covered by a max
// pool, dead downstream path); per Lemma 3, it retries critical points in
// other regions until the white box confirms the kink is sensitized there.
func (a *Attack) planProbe(cand *nn.Network, reluSite, j int, d float64, rng *rand.Rand) voteProbe {
	for try := 0; try < a.cfg.MaxCriticalTries; try++ {
		x0, found := searchCriticalPointReLU(cand, reluSite, j, a.cfg, rng)
		if !found {
			a.log.Debug("no critical point for vote", "relu", reluSite, "neuron", j)
			break
		}
		v := a.voteDirection(cand, x0, reluSite, j, rng)
		ctrl := tensor.VecClone(x0)
		tensor.AXPY(3*d, v, ctrl)

		// The white-box observability gate involves no oracle queries
		// and keeps the clean threshold.
		kinkW := secondDifferenceOf(cand.Forward, x0, v, d)
		bgW := secondDifferenceOf(cand.Forward, ctrl, v, d)
		if kinkW > 10*bgW+a.cfg.AbsChange {
			return voteProbe{x0: x0, ctrl: ctrl, v: v}
		}
	}
	return voteProbe{}
}

// directGatedFlip returns the flip site whose output this ReLU rectifies
// directly, or -1.
func (a *Attack) directGatedFlip(reluSite int) int {
	layout := a.white.SiteLayout()
	for i, ev := range layout {
		if !ev.IsFlip && ev.ID == reluSite && i > 0 {
			prev := layout[i-1]
			if prev.IsFlip && prev.Seq == ev.Seq && prev.Pos == ev.Pos-1 {
				return prev.ID
			}
		}
	}
	return -1
}

// specIndexOf finds the spec position of the protected neuron at
// (site, index), if any.
func (a *Attack) specIndexOf(site, index int) (int, bool) {
	for i, pn := range a.spec.Neurons {
		if pn.Site == site && pn.Index == index {
			return i, true
		}
	}
	return 0, false
}

// ownHyperplaneMoves reports whether the scheme lets a neuron's own key
// bit move its hyperplane (breaking the negation-specific half of Lemma 1).
func (a *Attack) ownHyperplaneMoves() bool {
	return a.spec.Scheme == hpnn.BiasShift || a.spec.Scheme == hpnn.WeightPerturb
}

// voteDirection picks the direction for the kink probe at ReLU input
// (reluSite, j). For contractive probe sites it uses the exact pre-image
// of e_j on the ReLU-input Jacobian, so the probe moves only the target
// input. For expansive sites no pre-image exists (§3.4); there it moves
// along the target's own gradient row, v = ∇u_j/‖∇u_j‖², which moves u_j
// by exactly 1 per unit step with the smallest possible excursion through
// input space (so few unrelated hyperplanes are crossed). Â goes back to
// the workspace pool on return; every returned direction is a fresh slice.
func (a *Attack) voteDirection(net *nn.Network, x0 []float64, reluSite, j int, rng *rand.Rand) []float64 {
	var aHat *tensor.Matrix
	if a.cfg.UseProductMatrix && geometry.FoldsToReLU(net, reluSite) {
		tr := net.ForwardTraceToReLU(x0, reluSite)
		if m, err := productMatrixAtReLUOf(net, tr, reluSite); err == nil {
			aHat = m
		}
	}
	if aHat == nil {
		_, jac := net.ReluInJacobian(x0, reluSite)
		aHat = jac
	}
	defer tensor.PutMatrix(aHat)
	width := net.ReLUs()[reluSite].N
	if width <= len(x0) {
		res := tensor.LeastSquares(aHat, tensor.Basis(aHat.Rows, j))
		if res.RelRes <= a.cfg.ResidualTol {
			return res.X
		}
	}
	g := aHat.Row(j)
	gn := tensor.Dot(g, g)
	if gn > 1e-18 {
		return tensor.VecScale(1/gn, g)
	}
	// Dead gradient: return something normalized; the vote will simply not
	// detect a kink.
	dir := make([]float64, len(x0))
	for i := range dir {
		dir[i] = rng.NormFloat64()
	}
	return tensor.VecScale(1/tensor.Norm2(dir), dir)
}

// kinkVotes measures the kink and background second differences of the
// given votes as one oracle batch: per vote, the six-point group
// {x0, x0±δv, ctrl, ctrl±δv}, votes in order. Each second difference
// vanishes when the oracle is affine on its probed segment. Under a
// declared-noisy oracle each group repeats cfg.ProbeVotes times in a row and
// the per-side median magnitudes are used — the median is robust to a
// single outlier draw. With ProbeVotes=1 the batch issues the paper's
// queries in the scalar order. It reports, per vote, whether the oracle
// bends at x0.
func (a *Attack) kinkVotes(sp *obs.Span, probes []voteProbe, d float64) ([]bool, error) {
	reps := a.cfg.ProbeVotes
	if reps < 1 {
		reps = 1
	}
	x := tensor.GetMatrix(6*reps*len(probes), len(probes[0].x0))
	for k, p := range probes {
		for r := 0; r < reps; r++ {
			at := 6 * (k*reps + r)
			fillTriple(x, at, p.x0, p.v, d)
			fillTriple(x, at+3, p.ctrl, p.v, d)
		}
	}
	y, err := a.multi(sp, x)
	tensor.PutMatrix(x)
	if err != nil {
		return nil, err
	}
	defer tensor.PutMatrix(y)
	hits := make([]bool, len(probes))
	kinks := make([]float64, reps)
	bgs := make([]float64, reps)
	for k := range probes {
		for r := 0; r < reps; r++ {
			at := 6 * (k*reps + r)
			kinks[r] = maxAbsSecondDiff(y.Row(at), y.Row(at+1), y.Row(at+2))
			bgs[r] = maxAbsSecondDiff(y.Row(at+3), y.Row(at+4), y.Row(at+5))
		}
		sort.Float64s(kinks)
		sort.Float64s(bgs)
		hits[k] = kinks[reps/2] > 10*a.calibrated(bgs[reps/2])+a.absChange()
	}
	return hits, nil
}

// fillTriple writes the second-difference probe triple {x, x+δv, x−δv} into
// rows at, at+1, at+2 of m — the exact order the scalar path queried them.
func fillTriple(m *tensor.Matrix, at int, x, v []float64, d float64) {
	m.SetRow(at, x)
	m.SetRow(at+1, x)
	tensor.AXPY(d, v, m.Row(at+1))
	m.SetRow(at+2, x)
	tensor.AXPY(-d, v, m.Row(at+2))
}

// maxAbsSecondDiff is ‖yp + ym − 2·y0‖∞.
func maxAbsSecondDiff(y0, yp, ym []float64) float64 {
	m := 0.0
	for i := range y0 {
		s := yp[i] + ym[i] - 2*y0[i]
		if s < 0 {
			s = -s
		}
		if s > m {
			m = s
		}
	}
	return m
}

// secondDifferenceOf evaluates the same probe on an arbitrary function.
func secondDifferenceOf(f func([]float64) []float64, x, v []float64, d float64) float64 {
	xp := tensor.VecClone(x)
	tensor.AXPY(d, v, xp)
	xm := tensor.VecClone(x)
	tensor.AXPY(-d, v, xm)
	y0 := f(x)
	yp := f(xp)
	ym := f(xm)
	m := 0.0
	for i := range y0 {
		s := yp[i] + ym[i] - 2*y0[i]
		if s < 0 {
			s = -s
		}
		if s > m {
			m = s
		}
	}
	return m
}

// directCompare checks functional equivalence between the candidate
// network and the oracle on random inputs. The tolerance carries the
// declared oracle degradation (cfg.oracleTol): under noise or quantization
// the oracle's answer legitimately strays from the true function by that
// much, and without the pad a perfectly recovered key would be rejected.
// The pad is exactly zero for a clean oracle.
func (a *Attack) directCompare(sp *obs.Span, net *nn.Network, rng *rand.Rand) (bool, error) {
	p := net.InSize()
	for i := 0; i < a.cfg.ValidationSamples; i++ {
		x := randomPoint(p, a.cfg.InputLim, rng)
		yo, err := a.query(sp, x)
		if err != nil {
			return false, err
		}
		yw := net.Forward(x)
		if a.orc.Softmax() {
			yw = tensor.Softmax(yw)
		}
		tol := a.cfg.EquivTol*(1+tensor.NormInf(yo)) + a.cfg.oracleTol()
		if tensor.NormInf(tensor.VecSub(yo, yw)) > tol {
			return false, nil
		}
	}
	return true, nil
}
