package core

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
)

// Run executes the DNN decryption attack (Algorithm 2) against the oracle:
// layer by layer in topological order, it attempts the algebraic
// key_bit_inference on every protected neuron, falls back to the
// learning_attack for ⊥ bits, and gates progression to the next layer on
// key_vector_validation, repairing failures with error_correction. It
// returns the recovered key together with query counts and the Figure 3
// timing breakdown.
//
// The whiteBox argument is the adversary's downloaded model (weights with
// identity flips); it is cloned, never mutated.
//
// Run never panics on oracle failure: transient device errors are retried
// (cfg.QueryRetries) and, if persistent, the affected decision degrades to
// ⊥ and falls through to the learning attack (counted in Result.Degraded);
// terminal errors — oracle.ErrBudgetExhausted, hard device faults — abort
// the run with a returned error.
//
// With cfg.Tracer (or cfg.TraceParent) set, the run is recorded as a span
// tree — attack → site → procedure, with per-probe detail under each
// procedure — whose rollup IS the returned Breakdown; see internal/obs.
//
// With cfg.OnCheckpoint set, the run offers a serializable Checkpoint at
// every site boundary; returning false from the hook suspends the run
// (Run returns ErrSuspended) and Resume continues it bit-identically.
func Run(whiteBox *nn.Network, spec hpnn.LockSpec, orc oracle.Interface, cfg Config) (*Result, error) {
	if spec.Scheme != hpnn.Negation {
		return RunVariant(whiteBox, spec, orc, cfg)
	}
	return New(whiteBox, spec, orc, cfg).runFrom(resumeBase{})
}

// sitePending carries the not-yet-validated bits across deferred sites
// (mid residual block, §3.7).
type sitePending struct {
	bits  []int
	sites []int
}

// runFrom executes the site loop from base (the zero value for a fresh run,
// a restored checkpoint's totals for a resumed one). All Result scalars and
// per-procedure maps report prior + segment, so a resumed run's Result is
// indistinguishable from an uninterrupted one — except Result.Breakdown and
// the exported trace, which cover only the post-resume segment (they anchor
// the new segment's span tree, and `dnnlock trace -check` requires summary
// == rollup exactly).
func (a *Attack) runFrom(base resumeBase) (*Result, error) {
	//lint:ignore determinism telemetry timer for Result.Time; the value never feeds the numerics
	start := time.Now()
	startQ := a.orc.Queries()
	startR := a.orc.Rounds()
	startS := simElapsed(a.orc)
	root := a.startRoot("attack", obs.Int("bits", a.spec.NumBits()))
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
			//lint:ignore determinism telemetry: checkpointed wall time reported to the operator, not used in computation
			wall := time.Since(start)
			ck := a.snapshot(&base, si+1, reports, &pending, src.draws(),
				a.orc.Queries()-startQ, a.orc.Rounds()-startR,
				wall, simElapsed(a.orc)-startS)
			if !a.cfg.OnCheckpoint(ck) {
				root.End(obs.Bool("suspended", true), obs.Int("sites_done", si+1))
				return nil, ErrSuspended
			}
		}
	}

	fsp := root.Child("final_check")
	eq, eqErr := a.directCompare(fsp, a.white, rng)
	fsp.End(obs.Bool("equivalent", eq))
	res := &Result{
		Key:     a.CurrentKey(),
		Origins: append([]BitOrigin(nil), a.origins...),
		Queries: base.queries + a.orc.Queries() - startQ,
		Rounds:  base.rounds + a.orc.Rounds() - startR,
		//lint:ignore determinism telemetry: elapsed wall time reported to the operator, not used in computation
		Time:          base.wall + time.Since(start),
		SimTime:       base.sim + simElapsed(a.orc) - startS,
		Breakdown:     a.bd,
		QueriesByProc: mergeProcCounts(base.procQueries, a.bd.QueriesByProc()),
		RoundsByProc:  mergeProcCounts(base.procRounds, a.bd.RoundsByProc()),
		SimByProc:     mergeProcDurations(base.procSimNS, a.bd.SimByProc()),
		Sites:         reports,
		Equivalent:    eq,
		Degraded:      int(a.degraded.Load()),
		BisectRounds:  a.crit.rounds.Load(),
		BisectProbes:  a.crit.probes.Load(),
	}
	root.End(obs.Int64("queries", res.Queries), obs.Int64("rounds", res.Rounds),
		obs.Int("degraded", res.Degraded), obs.Bool("equivalent", res.Equivalent))
	if eqErr != nil {
		return res, fmt.Errorf("core: final equivalence check: %w", eqErr)
	}
	if !res.Equivalent {
		return res, fmt.Errorf("core: recovered key is not functionally equivalent to the oracle")
	}
	return res, nil
}

// runSite attacks the protected bits of one flip site: algebraic inference,
// learning fallback, then the validation / correction loop over the pending
// group (Algorithm 2 lines 4–10). The site span always ends — the success
// paths end it explicitly with annotations, and the deferred End (a no-op
// after an explicit one) covers the error returns, so an aborted run still
// exports the partial site record instead of truncating the trace.
func (a *Attack) runSite(site int, bits []int, pending *sitePending, rng *rand.Rand) (SiteReport, error) {
	rep := SiteReport{Site: site, Bits: len(bits)}
	ssp := a.root.Child("site", obs.Int("site", site), obs.Int("bits", len(bits)))
	defer ssp.End()

	// Phase 1: algebraic inference (Algorithm 1) on every bit, in
	// parallel across neurons (§4.1).
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
				inferred[i], err = a.keyBitInference(bits[i], wrng)
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

	// Phase 2: learning attack on the ⊥ bits (§3.6).
	if len(unresolved) > 0 {
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
		// before trying again.
		if round == a.cfg.MaxCorrectionRounds {
			return rep, fmt.Errorf("core: site %d failed validation after %d correction rounds", site, round+1)
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
