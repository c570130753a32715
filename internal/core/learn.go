package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"dnnlock/internal/dataset"
	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
	"dnnlock/internal/train"
)

// softSite is one flip layer with softened coefficients during a learning
// attack.
type softSite struct {
	flip     *nn.Flip
	specIdxs []int // spec positions, aligned with the soften indices
	param    *nn.Param
}

// soften converts the given spec bits (grouped by site) of net into
// continuous coefficients and returns the soft sites. Flips directly gated
// by a ReLU use the branch-interpolating relaxation (see nn.Flip).
func soften(net *nn.Network, spec *hpnn.LockSpec, bySite map[int][]int) []softSite {
	gated := gatedFlipSites(net)
	sites := make([]int, 0, len(bySite))
	for site := range bySite { //lint:ignore determinism keys are sorted on the next line before use
		sites = append(sites, site)
	}
	sort.Ints(sites)
	var out []softSite
	for _, site := range sites {
		specIdxs := bySite[site]
		flip := net.Flips()[site]
		neuronIdxs := make([]int, len(specIdxs))
		for i, si := range specIdxs {
			neuronIdxs[i] = spec.Neurons[si].Index
		}
		p := flip.Soften(neuronIdxs, gated[site])
		out = append(out, softSite{flip: flip, specIdxs: specIdxs, param: p})
	}
	return out
}

// gatedFlipSites reports which flip sites are directly rectified by a ReLU
// in the same layer sequence.
func gatedFlipSites(net *nn.Network) map[int]bool {
	out := make(map[int]bool)
	layout := net.SiteLayout()
	for i, ev := range layout {
		if ev.IsFlip && i+1 < len(layout) {
			next := layout[i+1]
			if !next.IsFlip && next.Seq == ev.Seq && next.Pos == ev.Pos+1 {
				out[ev.ID] = true
			}
		}
	}
	return out
}

// fitSoft runs the §3.6 optimization: freeze all weights, fit the soft key
// coefficients by Adam on the MSE between net's logits and the oracle
// labels. It stops when every coefficient clears the confidence threshold
// or when the loss plateaus. epochCb, when non-nil, is called once per
// epoch and may stop the fit by returning false.
//
// net is a CloneForKeys clone, so its weights are frozen views: the
// training passes skip all weight-gradient work, write into buffers the
// clone's layers own, and die with the clone. Only the soft flip
// coefficients train, so the network is also split at the earliest
// softened flip site (nn.Slice): the frozen prefix is evaluated exactly
// once for the whole query set, and every minibatch of every epoch
// shuffles and gathers rows of that activation cache instead of re-running
// the prefix forward and backward. Backpropagation stops at the slice
// boundary. The sliced fit is numerically identical to the unsliced one
// (fitSlice on net.FullSlice(), the reference TestFitSoftSliceEquivalence
// runs): prefix activations are batch-independent per row, and no
// trainable parameter lives in the prefix.
//
// softmax mirrors an oracle that exposes softmax probabilities: the white
// box's logits are mapped through softmax before the MSE, and the gradient
// is pulled back through the softmax Jacobian (train.MSESoftmaxInto).
func fitSoft(net *nn.Network, sites []softSite, x, y *tensor.Matrix, cfg Config,
	rng *rand.Rand, softmax bool, epochCb func(epoch int, loss float64) bool) {

	if len(sites) == 0 {
		return
	}
	firstSite := sites[0].flip.SiteID
	for _, s := range sites {
		if s.flip.SiteID < firstSite {
			firstSite = s.flip.SiteID
		}
	}
	fitSlice(net.Split(firstSite), sites, x, y, cfg, rng, softmax, epochCb)
}

// fitSlice is fitSoft on a given split of the network: no softened site
// may lie in sl's prefix.
func fitSlice(sl *nn.Slice, sites []softSite, x, y *tensor.Matrix, cfg Config,
	rng *rand.Rand, softmax bool, epochCb func(epoch int, loss float64) bool) {

	n := x.Rows
	perm := rng.Perm(n)
	// Frozen-prefix activation cache, evaluated once per query set.
	h := sl.PrefixForward(x)
	if h != x {
		defer tensor.PutMatrix(h)
	}
	st := newFitStep(sl, sites, h, y, cfg, softmax)
	defer st.release()
	bestLoss := math.Inf(1)
	stall := 0
	for epoch := 0; epoch < cfg.LearnEpochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		epochLoss := 0.0
		batches := 0
		for start := 0; start < n; start += cfg.LearnBatch {
			end := start + cfg.LearnBatch
			if end > n {
				end = n
			}
			epochLoss += st.run(perm[start:end])
			batches++
		}
		epochLoss /= float64(batches)
		if epochCb != nil && !epochCb(epoch, epochLoss) {
			return
		}
		// Stop rule i: every coefficient is confident.
		allConfident := true
		for _, s := range sites {
			for _, k := range s.flip.SoftCoeffs() {
				if math.Abs(k) < cfg.ConfidenceThreshold {
					allConfident = false
					break
				}
			}
		}
		if allConfident {
			return
		}
		// Stop rule ii (attacker-observable): loss plateau.
		if epochLoss < bestLoss-1e-12 {
			bestLoss = epochLoss
			stall = 0
		} else {
			stall++
			if stall >= cfg.PlateauEpochs {
				return
			}
		}
	}
}

// fitStep is one exact fit's minibatch step over a query set's boundary
// activations h and labels y. Its workspaces are sized for a full
// minibatch and resliced in place for a partial one, and the slice's
// layers own their training buffers, so after the first minibatch a step
// allocates nothing.
type fitStep struct {
	sl           *nn.Slice
	h, y         *tensor.Matrix
	bh, by, grad *tensor.Matrix
	smScratch    []float64 // softmax row, nil unless softmax
	opt          *train.Adam
	params       []*nn.Param
}

func newFitStep(sl *nn.Slice, sites []softSite, h, y *tensor.Matrix, cfg Config, softmax bool) *fitStep {
	batch := cfg.LearnBatch
	if batch > h.Rows {
		batch = h.Rows
	}
	st := &fitStep{
		sl: sl, h: h, y: y,
		bh:   tensor.GetMatrix(batch, h.Cols),
		by:   tensor.GetMatrix(batch, y.Cols),
		grad: tensor.GetMatrix(batch, y.Cols),
		opt:  train.NewAdam(cfg.LearnRate),
	}
	if softmax {
		st.smScratch = make([]float64, y.Cols)
	}
	for _, s := range sites {
		st.params = append(st.params, s.param)
	}
	return st
}

// release returns the step's workspaces to the pool.
func (st *fitStep) release() { tensor.PutMatrix(st.bh, st.by, st.grad) }

// run takes one Adam step on the rows of the query set named by idx (at
// most a full minibatch) and returns the minibatch loss. Step zeroes the
// soft coefficient gradients it consumes; the frozen weights have none.
func (st *fitStep) run(idx []int) float64 {
	m := len(idx)
	bh, by, grad := reslice(st.bh, m), reslice(st.by, m), reslice(st.grad, m)
	tensor.GatherRowsInto(bh, st.h, idx)
	tensor.GatherRowsInto(by, st.y, idx)
	pred := st.sl.TrainForward(bh)
	var loss float64
	if st.smScratch != nil {
		loss = train.MSESoftmaxInto(grad, pred, by, st.smScratch)
	} else {
		loss = train.MSEInto(grad, pred, by)
	}
	st.sl.Backward(grad)
	st.opt.Step(st.params)
	return loss
}

// reslice shrinks (or restores) a workspace's row count in place; the
// backing storage keeps its full capacity, so unlike FromSlice no header
// escapes to the heap per minibatch.
func reslice(m *tensor.Matrix, rows int) *tensor.Matrix {
	m.Rows = rows
	m.Data = m.Data[:rows*m.Cols]
	return m
}

// learningAttack recovers the unresolved bits of one site (§3.6). The
// white box already carries the recovered prefix keys and the algebraic
// bits of this site as hard signs; those are enforced at ±1 exactly as the
// paper prescribes. The ⊥ bits of this site are softened as the learning
// targets — and so are all still-undecided bits of *later* sites, as free
// nuisance coefficients: without them the oracle's unknown downstream keys
// put an irreducible floor under the MSE that buries the current layer's
// gradient signal. The nuisance values are discarded afterwards.
//
// It writes the learned bits into the white box and returns the per-bit
// confidence |K'| keyed by spec position. A non-nil error (budget
// exhaustion, persistent device fault) leaves the white box unchanged for
// the undecided bits and must abort the run — the learning attack is the
// last fallback, so there is nothing left to degrade to.
func (a *Attack) learningAttack(site int, unresolved []int, rng *rand.Rand) (map[int]float64, error) {
	lsp := a.phase.ChildDetail("fit", obs.Int("site", site), obs.Int("bits", len(unresolved)),
		obs.Int("learn_queries", a.cfg.LearnQueries))
	trainNet := a.white.CloneForKeys()
	bySite := map[int][]int{site: unresolved}
	for i, pn := range a.spec.Neurons {
		if pn.Site > site && !a.decided[i] {
			bySite[pn.Site] = append(bySite[pn.Site], i)
		}
	}
	sites := soften(trainNet, &a.spec, bySite)

	x := dataset.UniformInputs(a.cfg.LearnQueries, trainNet.InSize(), a.cfg.InputLim, rng)
	y, err := a.multi(lsp, x)
	if err != nil {
		tensor.PutMatrix(x)
		lsp.End(obs.String("outcome", "labelling_failed"))
		return nil, err
	}
	// The epoch callback only observes the trajectory for the trace — it
	// always returns true, so the fit runs exactly as it does untraced.
	var epochCb func(int, float64) bool
	var epochs int
	var lastLoss float64
	if lsp != nil {
		epochCb = func(e int, loss float64) bool {
			epochs, lastLoss = e+1, loss
			return true
		}
	}
	fitSoft(trainNet, sites, x, y, a.cfg, rng, a.orc.Softmax(), epochCb)
	lsp.End(obs.Int("epochs", epochs), obs.Float("loss", lastLoss))
	// The query set and its labels are per-invocation scratch: recycle them
	// instead of leaking a fresh pair every site visit.
	tensor.PutMatrix(x, y)

	conf := make(map[int]float64, len(unresolved))
	for _, s := range sites {
		confs := s.flip.Harden()
		if s.flip.SiteID != site {
			continue // nuisance coefficients: discard
		}
		for i, si := range s.specIdxs {
			bit := s.flip.Bit(a.spec.Neurons[si].Index)
			a.setBit(si, bit, confs[i], OriginLearning)
			conf[si] = confs[i]
		}
	}
	return conf, nil
}

// MonolithicReport extends Result with the per-epoch trajectory the
// harness uses to reproduce the §4.3 stop rules.
type MonolithicReport struct {
	Result
	Epochs int
	Losses []float64
}

// Monolithic runs the paper's baseline: the learning attack alone, applied
// to all key bits of all layers simultaneously (§4.3). monitor, when
// non-nil, observes the current key hypothesis each epoch (the paper's
// experimenters tracked accuracy and fidelity this way) and may stop the
// attack by returning false.
func Monolithic(white *nn.Network, spec hpnn.LockSpec, orc oracle.Interface, cfg Config,
	monitor func(epoch int, key hpnn.Key) bool) (*MonolithicReport, error) {

	cfg = cfg.withDefaults()
	//lint:ignore determinism telemetry timer for Result.Time; the value never feeds the numerics
	start := time.Now()
	startQ := orc.Queries()
	startR := orc.Rounds()
	startS := simElapsed(orc)
	rng := rand.New(rand.NewSource(cfg.Seed))

	// The baseline is one long learning phase: a single proc-labelled span
	// under a root anchor, so its trace rolls up into the Breakdown exactly
	// like the decryption attack's phases do.
	bd := metrics.NewBreakdown()
	var root *obs.Span
	if p := cfg.TraceParent; p != nil {
		root = p.Child("monolithic", obs.Int("bits", spec.NumBits()))
	} else {
		root = tracerFor(cfg).Start("monolithic", obs.Int("bits", spec.NumBits()))
	}
	root.SetBreakdown(bd)
	defer root.End()
	ph := root.Child(string(metrics.ProcLearningAttack), obs.Proc(metrics.ProcLearningAttack))
	// Ended explicitly on success after its counters land; the defer (End is
	// idempotent) covers the error return so the phase record still exports.
	defer ph.End()

	net := white.CloneForKeys()
	// All bits participate; group by site.
	bySite := spec.SiteBits()
	sites := soften(net, &spec, bySite)

	x := dataset.UniformInputs(cfg.LearnQueries, net.InSize(), cfg.InputLim, rng)
	y, err := queryBatchRetry(orc, x, cfg.QueryRetries, nil)
	if err != nil {
		tensor.PutMatrix(x)
		return nil, fmt.Errorf("core: monolithic labelling failed: %w", err)
	}

	rep := &MonolithicReport{}
	readKey := func() hpnn.Key {
		key := make(hpnn.Key, spec.NumBits())
		for _, s := range sites {
			coeffs := s.flip.SoftCoeffs()
			for i, si := range s.specIdxs {
				key[si] = coeffs[i] < 0
			}
		}
		return key
	}
	fitSoft(net, sites, x, y, cfg, rng, orc.Softmax(), func(epoch int, loss float64) bool {
		rep.Epochs = epoch + 1
		rep.Losses = append(rep.Losses, loss)
		if monitor != nil {
			return monitor(epoch, readKey())
		}
		return true
	})
	tensor.PutMatrix(x, y)

	key := make(hpnn.Key, spec.NumBits())
	origins := make([]BitOrigin, spec.NumBits())
	for _, s := range sites {
		s.flip.Harden()
		for _, si := range s.specIdxs {
			key[si] = s.flip.Bit(spec.Neurons[si].Index)
			origins[si] = OriginLearning
		}
	}
	rep.Result = Result{
		Key:     key,
		Origins: origins,
		Queries: orc.Queries() - startQ,
		Rounds:  orc.Rounds() - startR,
		//lint:ignore determinism telemetry: elapsed wall time reported to the operator, not used in computation
		Time:      time.Since(start),
		SimTime:   simElapsed(orc) - startS,
		Breakdown: bd,
	}
	ph.AddQueries(rep.Queries)
	ph.AddRounds(rep.Rounds)
	ph.AddSimNS(int64(rep.SimTime))
	ph.End()
	root.End(obs.Int("epochs", rep.Epochs), obs.Int64("queries", rep.Queries),
		obs.Int64("rounds", rep.Rounds))
	rep.QueriesByProc = bd.QueriesByProc()
	rep.RoundsByProc = bd.RoundsByProc()
	rep.SimByProc = bd.SimByProc()
	return rep, nil
}
