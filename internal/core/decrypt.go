package core

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
)

// Run executes the DNN decryption attack (Algorithm 2) against the oracle:
// layer by layer in topological order, it decides every protected bit it
// can algebraically, falls back for the ⊥ bits, and gates progression to
// the next layer on key_vector_validation, repairing failures with
// error_correction. It returns the recovered key together with query
// counts and the Figure 3 timing breakdown.
//
// The lock scheme changes only how a bit is decided. Under negation,
// key_bit_inference (Algorithm 1) decides it and the learning_attack
// (§3.6) takes the ⊥ bits. The §3.9 variants decide a bit by
// candidate-hyperplane testing (hypothesisTestBit); a ⊥ bit defaults to 0
// with no confidence for validation and correction to repair, and a bit
// that is still undecided after the last site is settled against the
// oracle before the final check (settleUnknown).
//
// The whiteBox argument is the adversary's downloaded model (weights with
// identity keys); it is cloned, never mutated.
//
// Run never panics on oracle failure: transient device errors are retried
// (cfg.QueryRetries) and, if persistent, the affected decision degrades to
// ⊥ (counted in Result.Degraded); terminal errors — oracle.ErrBudgetExhausted,
// hard device faults — abort the run with a returned error.
//
// The returned Breakdown is the run's per-procedure ledger (Figure 3), and
// the per-procedure maps of the Result are read from it. With cfg.Tracer
// (or cfg.TraceParent) recording to a sink, the run is also exported as a
// span tree — attack → site → procedure, with per-probe detail under each
// procedure; see internal/obs.
//
// With cfg.OnCheckpoint set, the run offers a serializable Checkpoint at
// every site boundary; returning false from the hook suspends the run
// (Run returns ErrSuspended) and Resume continues it bit-identically.
func Run(whiteBox *nn.Network, spec hpnn.LockSpec, orc oracle.Interface, cfg Config) (*Result, error) {
	return New(whiteBox, spec, orc, cfg).runFrom(resumeBase{})
}

// sitePending carries the not-yet-validated bits across deferred sites
// (mid residual block, §3.7).
type sitePending struct {
	bits  []int
	sites []int
}

// runFrom executes the site loop from base (the zero value for a fresh run,
// a restored checkpoint's totals for a resumed one). All Result scalars
// report prior + segment, and restore seeded the ledger with the prior
// per-procedure totals, so a resumed run's Result covers the whole run like
// an uninterrupted one. The exported trace covers only the post-resume
// segment: it anchors the new segment's span tree.
func (a *Attack) runFrom(base resumeBase) (*Result, error) {
	seg := a.startSegment()
	root := startRoot(a.cfg, "attack", obs.Int("bits", a.spec.NumBits()),
		obs.String("scheme", a.spec.Scheme.String()))
	a.root = root
	defer root.End() // idempotent: the success path ends it with annotations
	src := newCountedSource(a.cfg.Seed)
	src.skip(base.rngDraws)
	rng := rand.New(src)
	bySite := a.spec.SiteBits()

	reports := append([]SiteReport(nil), base.reports...)
	pending := sitePending{bits: base.pendingBits, sites: base.pendingSites}
	sites := a.orderedSites()
	for si := base.sitesDone; si < len(sites); si++ {
		site := sites[si]
		rep, err := a.runSite(site, bySite[site], &pending, rng)
		if err != nil {
			return nil, err
		}
		reports = append(reports, rep)
		if a.cfg.OnCheckpoint != nil {
			ck := a.snapshot(&base, seg, si+1, reports, &pending, src.draws())
			if !a.cfg.OnCheckpoint(ck) {
				root.End(obs.Bool("suspended", true), obs.Int("sites_done", si+1))
				return nil, ErrSuspended
			}
		}
	}

	if slices.Contains(a.origins, OriginUnknown) {
		var settleErr error
		a.trackProc(root, metrics.ProcErrorCorrection, func() {
			settleErr = a.settleUnknown(rng)
		})
		if settleErr != nil {
			return nil, fmt.Errorf("core: settling undecided bits: %w", settleErr)
		}
	}
	fsp := root.Child("final_check")
	eq, eqErr := a.directCompare(fsp, a.white, rng)
	fsp.End(obs.Bool("equivalent", eq))
	res := a.result(&base, seg)
	res.Sites = reports
	res.Equivalent = eq
	root.End(obs.Int64("queries", res.Queries), obs.Int64("rounds", res.Rounds),
		obs.Int("degraded", res.Degraded), obs.Bool("equivalent", res.Equivalent))
	if eqErr != nil {
		return res, fmt.Errorf("core: final equivalence check: %w", eqErr)
	}
	if !res.Equivalent {
		return res, fmt.Errorf("core: recovered key is not functionally equivalent to the oracle")
	}
	if i := slices.Index(res.Origins, OriginUnknown); i >= 0 {
		return res, fmt.Errorf("core: key bit %d was never decided", i)
	}
	return res, nil
}

// segment marks where a run, or a resumed run's new segment, began: the
// wall clock and the oracle's query, round and simulated-time counters.
type segment struct {
	start           time.Time
	queries, rounds int64
	sim             time.Duration
}

func (a *Attack) startSegment() segment {
	return segment{
		//lint:ignore determinism telemetry timer for Result.Time; the value never feeds the numerics
		start:   time.Now(),
		queries: a.orc.Queries(),
		rounds:  a.orc.Rounds(),
		sim:     simElapsed(a.orc),
	}
}

// result assembles a run's Result from the key and origins written into
// the white box, the ledger, and the run totals: base (the prior segments'
// totals of a resumed run, else zero) plus this segment's usage since seg.
// The caller fills Sites and Equivalent.
func (a *Attack) result(base *resumeBase, seg segment) *Result {
	ledger := a.bd.Snapshot()
	return &Result{
		Key:     a.CurrentKey(),
		Origins: append([]BitOrigin(nil), a.origins...),
		Queries: base.queries + a.orc.Queries() - seg.queries,
		Rounds:  base.rounds + a.orc.Rounds() - seg.rounds,
		//lint:ignore determinism telemetry: elapsed wall time reported to the operator, not used in computation
		Time:          base.wall + time.Since(seg.start),
		SimTime:       base.sim + simElapsed(a.orc) - seg.sim,
		Breakdown:     a.bd,
		QueriesByProc: ledger.Queries,
		RoundsByProc:  ledger.Rounds,
		SimByProc:     ledger.Sim,
		Degraded:      int(a.degraded.Load()),
		BisectRounds:  a.crit.rounds.Load(),
		BisectProbes:  a.crit.probes.Load(),
	}
}

// runSite attacks the protected bits of one flip site: algebraic decisions
// on every bit, the fallback for the ⊥ bits, then the validation /
// correction loop over the pending group (Algorithm 2 lines 4–10). The
// scheme enters twice: it picks the bit test, and since only a sign flip
// can be softened, only negation sends ⊥ bits to the learning attack and
// relearns after an exhausted correction. The site span always ends — the
// success paths end it explicitly with annotations, and the deferred End
// (a no-op after an explicit one) covers the error returns, so an aborted
// run still exports the partial site record instead of truncating the
// trace.
func (a *Attack) runSite(site int, bits []int, pending *sitePending, rng *rand.Rand) (SiteReport, error) {
	rep := SiteReport{Site: site, Bits: len(bits)}
	ssp := a.root.Child("site", obs.Int("site", site), obs.Int("bits", len(bits)))
	defer ssp.End()
	negation := a.spec.Scheme == hpnn.Negation

	// Phase 1: algebraic decisions on every bit, in parallel across
	// neurons (§4.1): Algorithm 1 under negation, candidate-hyperplane
	// testing under the §3.9 variants.
	inferred := make([]bitValue, len(bits))
	if a.cfg.DisableAlgebraic {
		for i := range inferred {
			inferred[i] = bitBottom
		}
	} else {
		var inferErr error
		a.trackProc(ssp, metrics.ProcKeyBitInference, func() {
			inferErr = a.parallelForErr(len(bits), rng.Int63(), func(i int, wrng *rand.Rand) error {
				var err error
				if negation {
					inferred[i], err = a.keyBitInference(bits[i], wrng)
				} else {
					inferred[i], err = a.hypothesisTestBit(bits[i], wrng)
				}
				return err
			})
		})
		if inferErr != nil {
			return rep, fmt.Errorf("core: site %d key_bit_inference: %w", site, inferErr)
		}
	}
	var unresolved []int
	for i, v := range inferred {
		switch v {
		case bitZero, bitOne:
			a.setBit(bits[i], v == bitOne, 1, OriginAlgebraic)
			rep.Algebraic++
		default:
			unresolved = append(unresolved, bits[i])
		}
	}
	a.log.Debug("site inferred", "site", site, "bits", len(bits),
		"algebraic", rep.Algebraic, "unresolved", len(unresolved))

	// Phase 2: the ⊥ bits. Negation learns them (§3.6); a variant bit
	// defaults to 0 with no confidence, for validation and correction to
	// repair.
	switch {
	case !negation:
		for _, b := range unresolved {
			a.setBit(b, false, 0, OriginUnknown)
		}
	case len(unresolved) > 0:
		var learnErr error
		a.trackProc(ssp, metrics.ProcLearningAttack, func() {
			_, learnErr = a.learningAttack(site, unresolved, rng)
		})
		if learnErr != nil {
			return rep, fmt.Errorf("core: site %d learning_attack: %w", site, learnErr)
		}
		rep.Learned = len(unresolved)
	}

	pending.bits = append(pending.bits, bits...)
	pending.sites = append(pending.sites, site)

	// Phase 3: validate the pending group, correcting errors until it
	// passes (Algorithm 2 lines 9–10). When the topology offers no
	// admissible probe yet (mid residual block), defer to the next
	// site and validate the block as one unit.
	if _, mode := a.validationProbe(pending.sites); mode == modeDefer {
		ssp.End(obs.Bool("deferred", true))
		return rep, nil
	}
	learnQueries := a.cfg.LearnQueries
	valid := false
	for round := 0; round <= a.cfg.MaxCorrectionRounds; round++ {
		var valErr error
		a.trackProc(ssp, metrics.ProcKeyVectorValidation, func() {
			rep.ValidationRuns++
			valid, valErr = a.keyVectorValidation(a.white, pending.sites, rng)
		})
		if valErr != nil {
			return rep, fmt.Errorf("core: site %d key_vector_validation: %w", site, valErr)
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
			return rep, fmt.Errorf("core: site %d error_correction: %w", site, corrErr)
		}
		if fixed {
			// The committed candidate already passed validation inside
			// errorCorrection.
			rep.Corrected++
			valid = true
			break
		}
		// Correction exhausted its Hamming budget: re-run the learning
		// attack with a doubled query budget on the least certain bits
		// before trying again (a variant validates and corrects again).
		if round == a.cfg.MaxCorrectionRounds {
			return rep, fmt.Errorf("core: site %d failed validation after %d correction rounds", site, round+1)
		}
		if !negation {
			continue
		}
		learnQueries *= 2
		relearn := lowConfidenceBits(a, pending.bits)
		if len(relearn) == 0 {
			relearn = unresolved
		}
		if len(relearn) > 0 {
			a.log.Info("validation failed: relearning", "site", site,
				"round", round, "bits", len(relearn), "learn_queries", learnQueries)
			var relearnErr error
			a.trackProc(ssp, metrics.ProcLearningAttack, func() {
				saved := a.cfg.LearnQueries
				a.cfg.LearnQueries = learnQueries
				relearnErr = a.relearnBySite(relearn, rng)
				a.cfg.LearnQueries = saved
			})
			if relearnErr != nil {
				return rep, fmt.Errorf("core: site %d relearn: %w", site, relearnErr)
			}
		}
	}
	if !valid {
		return rep, fmt.Errorf("core: site %d failed validation", site)
	}
	pending.bits = pending.bits[:0]
	pending.sites = pending.sites[:0]
	ssp.End(obs.Int("algebraic", rep.Algebraic), obs.Int("learned", rep.Learned),
		obs.Int("corrected", rep.Corrected))
	return rep, nil
}

// lowConfidenceBits returns the bits whose confidence is below the
// settling threshold, the natural relearning targets.
func lowConfidenceBits(a *Attack, bits []int) []int {
	var out []int
	for _, b := range bits {
		if a.confidence[b] < a.cfg.ConfidenceThreshold {
			out = append(out, b)
		}
	}
	return out
}

// relearnBySite reruns the learning attack for the given bits, one site at
// a time (learningAttack softens a single flip layer per call).
func (a *Attack) relearnBySite(bits []int, rng *rand.Rand) error {
	bySite := make(map[int][]int)
	sites := make([]int, 0, len(bySite))
	for _, b := range bits {
		s := a.spec.Neurons[b].Site
		if _, seen := bySite[s]; !seen {
			sites = append(sites, s)
		}
		bySite[s] = append(bySite[s], b)
	}
	// Each learning attack advances the shared rng and mutates the network,
	// so the site order must be reproducible across runs.
	sort.Ints(sites)
	for _, site := range sites {
		if _, err := a.learningAttack(site, bySite[site], rng); err != nil {
			return err
		}
	}
	return nil
}
