package core

import (
	"errors"
	"log/slog"
	"math/rand"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/nn"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
)

// Attack carries the shared state of one decryption run. The white-box
// network is the adversary's working copy: recovered key bits are written
// into its flip layers as the attack proceeds layer by layer, so that
// critical points of layer i+1 are computed under the already-decrypted
// prefix (Lemma 1).
type Attack struct {
	white   *nn.Network
	spec    hpnn.LockSpec
	orc     oracle.Interface
	cfg     Config
	bd      *metrics.Breakdown
	applier bitApplier

	// Per-bit state aligned with spec.Neurons.
	decided    []bool
	confidence []float64
	origins    []BitOrigin

	// degraded counts oracle-facing decisions abandoned to ⊥ because of
	// persistent transient failures or split majority votes.
	degraded atomic.Int64

	// crit accumulates bisection round/probe counts (cfg.critStats points
	// at it so the search code in critical.go, which has no *Attack, can
	// report).
	crit critStats

	// Observability. tracer and log are never nil (New substitutes the
	// no-op tracer and the env-controlled default logger). root is the
	// attack's root span, the rollup anchor of bd; phase is the span of the
	// procedure currently running — written only by trackProc between
	// phases, read by that phase's worker goroutines (the write
	// happens-before the workers start).
	tracer *obs.Tracer
	root   *obs.Span
	phase  *obs.Span
	log    *slog.Logger
}

// New prepares an attack against the locked model served by orc. The
// white-box network is cloned; the caller's copy is never mutated.
func New(white *nn.Network, spec hpnn.LockSpec, orc oracle.Interface, cfg Config) *Attack {
	applier := applierFor(white, spec)
	a := &Attack{
		white:      applier.clone(white),
		spec:       spec,
		orc:        orc,
		cfg:        cfg.withDefaults(),
		bd:         metrics.NewBreakdown(),
		applier:    applier,
		decided:    make([]bool, spec.NumBits()),
		confidence: make([]float64, spec.NumBits()),
		origins:    make([]BitOrigin, spec.NumBits()),
		tracer:     tracerFor(cfg),
		log:        loggerFor(cfg),
	}
	a.cfg.critStats = &a.crit
	// Start from the identity hypothesis (all bits 0).
	for i, pn := range spec.Neurons {
		a.applier.apply(a.white, pn, i, false)
	}
	return a
}

// Breakdown exposes the per-procedure timing (Figure 3).
func (a *Attack) Breakdown() *metrics.Breakdown { return a.bd }

// tracerFor resolves the attack's tracer: the TraceParent's tracer first,
// then the configured one, then the no-op default.
func tracerFor(cfg Config) *obs.Tracer {
	if cfg.TraceParent != nil {
		return cfg.TraceParent.Tracer()
	}
	if cfg.Tracer != nil {
		return cfg.Tracer
	}
	return obs.New()
}

// loggerFor resolves the attack's logger: Logger, else the
// DNNLOCK_LOG-controlled default.
func loggerFor(cfg Config) *slog.Logger {
	if cfg.Logger != nil {
		return cfg.Logger
	}
	return obs.Default(os.Stderr)
}

// startRoot opens the attack's root span, parented to cfg.TraceParent when
// the harness provides one. The span anchors a.bd: every proc-labelled phase
// span that ends under it adds to the Figure 3 breakdown.
func (a *Attack) startRoot(name string, attrs ...obs.Attr) *obs.Span {
	var sp *obs.Span
	if p := a.cfg.TraceParent; p != nil {
		sp = p.Child(name, attrs...)
	} else {
		sp = a.tracer.Start(name, attrs...)
	}
	sp.SetBreakdown(a.bd)
	a.root = sp
	return sp
}

// trackProc runs one procedure phase of Algorithm 2 under a proc-labelled
// child span of parent. The span times the phase and carries its oracle
// usage (phases are sequential, so the counter delta is exact); when it
// ends, both roll up into a.bd through the root anchor. While f runs the
// span is the attack's current phase — the parent of detail spans and the
// destination of degradation events raised on worker goroutines.
func (a *Attack) trackProc(parent *obs.Span, proc metrics.Procedure, f func()) {
	sp := parent.Child(string(proc), obs.Proc(proc))
	q0 := a.orc.Queries()
	r0 := a.orc.Rounds()
	s0 := simElapsed(a.orc)
	a.phase = sp
	f()
	a.phase = nil
	sp.AddQueries(a.orc.Queries() - q0)
	// Rounds are attributed only here, on phase spans, from the same exact
	// counter delta as queries: every round a phase issues has returned
	// before f does. Simulated channel time (farm transports) follows the
	// same delta discipline.
	sp.AddRounds(a.orc.Rounds() - r0)
	sp.AddSimNS(int64(simElapsed(a.orc) - s0))
	sp.End()
}

// simElapsed reads the oracle stack's simulated clock when the channel is
// simulated (oracle.Clocked), else 0. Phases take deltas of it the same way
// they take deltas of Rounds; for a direct oracle every delta is 0 and the
// sim accounting stays absent rather than zero-filled.
func simElapsed(orc oracle.Interface) time.Duration {
	if c, ok := orc.(oracle.Clocked); ok {
		return c.SimElapsed()
	}
	return 0
}

// event records a point annotation on the current phase span (or the root
// between phases). Safe from phase worker goroutines.
func (a *Attack) event(name string, attrs ...obs.Attr) {
	if sp := a.phase; sp != nil {
		sp.Event(name, attrs...)
		return
	}
	a.root.Event(name, attrs...)
}

// CurrentKey reads the key hypothesis currently written into the white box.
func (a *Attack) CurrentKey() hpnn.Key {
	key := make(hpnn.Key, a.spec.NumBits())
	for i, pn := range a.spec.Neurons {
		key[i] = a.applier.read(a.white, pn, i)
	}
	return key
}

// setBit writes one decided bit into the white box.
func (a *Attack) setBit(i int, bit bool, conf float64, origin BitOrigin) {
	a.applier.apply(a.white, a.spec.Neurons[i], i, bit)
	a.decided[i] = true
	a.confidence[i] = conf
	a.origins[i] = origin
}

// decidedBits lists every spec bit decided so far. Error correction draws
// its candidate pool from all of them (confidence-ordered), so a mistake
// that slipped through an earlier layer's validation can still be repaired
// when a later layer fails.
func (a *Attack) decidedBits() []int {
	var out []int
	for i, d := range a.decided {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// orderedSites returns the protected flip sites in ascending network order,
// which for our feed-forward topologies is a topological order (§4.1).
func (a *Attack) orderedSites() []int {
	bySite := a.spec.SiteBits()
	sites := make([]int, 0, len(bySite))
	for s := range bySite { //lint:ignore determinism keys are sorted on the next line before use
		sites = append(sites, s)
	}
	sort.Ints(sites)
	return sites
}

// parallelFor runs fn(i) for i in [0, n) on the configured worker count.
// Each invocation receives an RNG seeded with seedBase+i, so its stream
// depends on the index alone. A worker reseeds one RNG per index rather
// than allocating a fresh source; fn must not keep the RNG past its return.
func (a *Attack) parallelFor(n int, seedBase int64, fn func(i int, rng *rand.Rand)) {
	workers := a.cfg.Workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		var rng *rand.Rand
		for i := 0; i < n; i++ {
			rng = reseed(rng, seedBase+int64(i))
			fn(i, rng)
		}
		return
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		//lint:ignore nakedgo deliberate fan-out sized by cfg.Workers; each index writes disjoint state
		go func() {
			defer wg.Done()
			var rng *rand.Rand
			//lint:ignore determinism work-distribution queue: fn(i) is seeded per index and indices write disjoint state, so arrival order cannot affect results
			for i := range next {
				rng = reseed(rng, seedBase+int64(i))
				fn(i, rng)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// reseed returns rng reset to the stream of rand.NewSource(seed), creating
// it on first use. Rand.Seed resets the source and the Read position, so a
// reseeded RNG draws exactly what a fresh one would.
func reseed(rng *rand.Rand, seed int64) *rand.Rand {
	if rng == nil {
		return rand.New(rand.NewSource(seed))
	}
	rng.Seed(seed)
	return rng
}

// parallelForErr is parallelFor for bodies that can fail. All indices run
// (workers do not stop early), and the lowest-index error is returned so the
// reported failure does not depend on goroutine scheduling.
func (a *Attack) parallelForErr(n int, seedBase int64, fn func(i int, rng *rand.Rand) error) error {
	errs := make([]error, n)
	a.parallelFor(n, seedBase, func(i int, rng *rand.Rand) {
		errs[i] = fn(i, rng)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// fallthroughBottom converts a still-transient failure (retries exhausted)
// into a graceful ⊥ — the bit falls through to the learning attack — and
// passes every other error (budget exhaustion, device faults) up to abort
// the run. The nil return distinguishes the two.
func (a *Attack) fallthroughBottom(err error) error {
	if errors.Is(err, oracle.ErrTransient) {
		a.degraded.Add(1)
		a.event("degraded", obs.String("reason", "transient"))
		a.log.Warn("transient oracle failure: degrading to ⊥", "retries", a.cfg.QueryRetries)
		return nil
	}
	return err
}

// absChange is the minimum oracle-output movement treated as real, padded by
// the declared oracle degradation. Identical to cfg.AbsChange when the
// oracle is clean.
func (a *Attack) absChange() float64 {
	return a.cfg.AbsChange + 2*a.cfg.oracleTol()
}

// calibrated removes the declared noise floor from a background curvature
// measurement: away from any kink the second difference is pure noise, and
// multiplying that noise by the background's 10x safety factor would drown
// the kink signal. Genuine background curvature (attention blocks) far above
// the noise floor passes through. Identity for a clean oracle.
func (a *Attack) calibrated(background float64) float64 {
	b := background - a.cfg.oracleTol()
	if b < 0 {
		return 0
	}
	return b
}
