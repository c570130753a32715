// Package core implements the paper's primary contribution: the DNN
// decryption attack of Algorithm 2 with its four procedures —
// search_critical_point (§3.5), key_bit_inference (Algorithm 1, §3.3),
// learning_attack (§3.6), key_vector_validation (§3.7) and
// error_correction (§3.8) — plus the monolithic learning-based baseline
// (§4.3) and the §3.9 variant reductions.
//
// Oracle traffic is shaped by the query planner (planner.go): every
// oracle-facing procedure routes its probes through a batching seam, and
// each procedure builds its batches explicitly, in index order — one per
// inference probe vote, one for all the votes of a validation. Rounds — the
// quantity that pays network latency against a remote device — shrink
// without changing query counts or recovered keys, and no count depends on
// the core count.
//
// Long runs are suspendable: Config.OnCheckpoint receives a versioned,
// serializable Checkpoint at every site boundary, and Resume continues a
// checkpointed run bit-identically (same key, queries, rounds) to an
// uninterrupted one. See checkpoint.go for the wire format and the
// resumability invariants per oracle decorator.
package core

import (
	"log/slog"
	"time"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/obs"
	"dnnlock/internal/tensor"
)

// Precision names the arithmetic of the learning attack's training loop
// (§3.6). The fit, like every other procedure, runs exact float64, so
// Precision has one value and selects nothing; it survives so that result
// headers keep recording "float64".
type Precision struct{}

// String names the precision.
func (Precision) String() string { return "float64" }

// Config tunes the attack. Zero values are replaced by the defaults below.
type Config struct {
	// Epsilon is the probe step of Algorithm 1: the oracle is queried at
	// x° ± ε·v where Â·v = e_j, so the target pre-activation moves by ±ε.
	Epsilon float64
	// CriticalTol is the |u| tolerance accepted by the bisection of
	// search_critical_point.
	CriticalTol float64
	// InputLim bounds the random-line sampling box [-lim, lim]^P.
	InputLim float64
	// LineSamples is the number of coarse samples per random line.
	LineSamples int
	// MaxLineTries bounds the number of random lines tried per search.
	MaxLineTries int
	// MaxCriticalTries bounds retries of Algorithm 1 with fresh critical
	// points before declaring the bit ⊥.
	MaxCriticalTries int
	// ResidualTol is the relative least-squares residual above which the
	// pre-image v is declared nonexistent (expansive location, §3.4).
	ResidualTol float64
	// DecisionRatio is how many times larger one side's output movement
	// must be for Algorithm 1 to decide a bit (robust form of lines 9–10).
	DecisionRatio float64
	// AbsChange is the minimum output movement treated as a real change.
	AbsChange float64

	// LearnQueries is the number of oracle-labelled random inputs per
	// learning_attack invocation; LearnEpochs and LearnRate drive the Adam
	// fit; ConfidenceThreshold settles bits early (§4.1).
	LearnQueries        int
	LearnEpochs         int
	LearnBatch          int
	LearnRate           float64
	ConfidenceThreshold float64
	// PlateauEpochs stops the fit when the loss has not improved for this
	// many consecutive epochs (the attacker-observable form of the
	// paper's stop rule ii).
	PlateauEpochs int
	// TrainPrecision records the fit's arithmetic; it is always float64.
	TrainPrecision Precision

	// ValidationNeurons caps how many next-layer neurons vote per
	// validation; ValidationDelta is the kink-probe step;
	// ValidationMajority is the vote fraction required to pass;
	// ValidationSamples is the input count of the last-layer direct
	// comparison; EquivTol its tolerance.
	ValidationNeurons  int
	ValidationDelta    float64
	ValidationMajority float64
	ValidationSamples  int
	EquivTol           float64

	// CorrectionPool caps how many lowest-confidence bits participate in
	// error_correction; MaxCorrectionHamming bounds the Hamming radius;
	// MaxCorrectionRounds bounds learning-retry rounds.
	CorrectionPool       int
	MaxCorrectionHamming int
	MaxCorrectionRounds  int

	// NoiseSigma declares the standard deviation of the oracle's response
	// noise (an oracle.Noisy wrapper, or a physically noisy device). The
	// attack widens its decision thresholds accordingly and repeats probe
	// queries ProbeVotes times, majority-voting the outcomes. Zero means a
	// clean oracle and leaves every threshold bit-identical to the paper's.
	NoiseSigma float64
	// QuantStep declares the output grid spacing of a quantized oracle
	// (oracle.QuantizationStep(bits)); like NoiseSigma it pads decision
	// thresholds. Zero means full precision.
	QuantStep float64
	// ProbeVotes is how many times each oracle-facing decision probe is
	// repeated for majority voting. The default 1 reproduces the paper's
	// single-shot probes exactly; use an odd count ≥3 under declared noise.
	ProbeVotes int
	// QueryRetries bounds the immediate retries of a query that failed with
	// oracle.ErrTransient before the attack degrades that decision to ⊥.
	QueryRetries int

	// Workers is the parallelism degree across neurons / candidates (§4.1).
	Workers int
	// Seed drives all attack randomness.
	Seed int64
	// UseProductMatrix enables the Formulas 2–3 fast path on sequential
	// piecewise-linear networks; the exact JVP is used otherwise.
	UseProductMatrix bool
	// DisableAlgebraic turns key_bit_inference off entirely (ablation).
	DisableAlgebraic bool

	// Tracer records the attack as a tree of spans (see internal/obs). Nil
	// selects the no-op default: phase spans are still timed — they are how
	// Result.Breakdown is populated — but nothing is exported and no
	// probe-level spans exist. Tracing never touches the attack's numerics
	// or random streams, so traced and untraced runs are bit-identical.
	Tracer *obs.Tracer
	// TraceParent, when non-nil, parents the attack's root span (the
	// harness uses it to group the attacks of one Table 1 cell). The span's
	// tracer takes precedence over Tracer.
	TraceParent *obs.Span
	// Logger receives the attack's structured progress records. Nil selects
	// obs.Default(os.Stderr): controlled by DNNLOCK_LOG, discarding when
	// the variable is unset.
	Logger *slog.Logger

	// OnCheckpoint, when non-nil, is called at every site boundary with a
	// complete serializable snapshot of the attack state (see Checkpoint for
	// the wire format and resumability invariants). Returning true continues
	// the run; returning false suspends it — Run returns ErrSuspended, and
	// Resume continues from the delivered checkpoint bit-identically (same
	// key, queries, rounds as an uninterrupted run). The hook runs on the
	// attack goroutine between sites, so it may block (dnnlockd persists the
	// checkpoint inside it) but blocks the attack while it does. Ignored
	// by the §3.9 variant reductions and the monolithic baseline, which run
	// uninterrupted.
	OnCheckpoint func(*Checkpoint) bool

	// critStats, when non-nil, accumulates the zero-search refinement
	// accounting (Result.BisectRounds and BisectProbes). New wires it to the
	// attack's own counters; the free-standing search helpers run
	// unaccounted when it is nil.
	critStats *critStats
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Epsilon:          1e-4,
		CriticalTol:      1e-10,
		InputLim:         2.0,
		LineSamples:      33,
		MaxLineTries:     24,
		MaxCriticalTries: 6,
		ResidualTol:      1e-6,
		DecisionRatio:    20,
		AbsChange:        1e-9,

		LearnQueries:        256,
		LearnEpochs:         200,
		LearnBatch:          32,
		LearnRate:           0.05,
		ConfidenceThreshold: 0.90,
		PlateauEpochs:       25,

		ValidationNeurons:  24,
		ValidationDelta:    1e-4,
		ValidationMajority: 0.85,
		ValidationSamples:  16,
		EquivTol:           1e-6,

		CorrectionPool:       16,
		MaxCorrectionHamming: 2,
		MaxCorrectionRounds:  3,

		ProbeVotes:   1,
		QueryRetries: 2,

		// Honors the DNNLOCK_PROCS override like the tensor runtime, so one
		// variable bounds every fan-out: kernels, attack procedures,
		// error-correction candidates, and the harness's Table 1 cells.
		Workers:          tensor.Parallelism(),
		Seed:             1,
		UseProductMatrix: true,
	}
}

// oracleTol is the extra decision slack implied by the declared oracle
// degradation: Gaussian noise rarely strays past a few sigma (8σ covers the
// worst of three-point probes on both sides), and quantization moves each
// response by at most half a step — a difference of two responses by a full
// step. Exactly zero for a clean oracle, so the paper's thresholds are
// untouched.
func (c Config) oracleTol() float64 {
	return 8*c.NoiseSigma + c.QuantStep
}

// probeStep widens a clean oracle probe step under declared degradation.
// The probed signal — a kink's second difference, an output movement across
// a critical point — grows linearly with the step, while the noise floor
// does not; a step of many oracleTol units restores the signal-to-noise
// margin the paper's tiny steps enjoy on a clean device. Returns exactly
// the clean step for a clean oracle.
func (c Config) probeStep(clean float64) float64 {
	if w := 100 * c.oracleTol(); w > clean {
		return w
	}
	return clean
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Epsilon == 0 {
		c.Epsilon = d.Epsilon
	}
	if c.CriticalTol == 0 {
		c.CriticalTol = d.CriticalTol
	}
	if c.InputLim == 0 {
		c.InputLim = d.InputLim
	}
	if c.LineSamples == 0 {
		c.LineSamples = d.LineSamples
	}
	if c.MaxLineTries == 0 {
		c.MaxLineTries = d.MaxLineTries
	}
	if c.MaxCriticalTries == 0 {
		c.MaxCriticalTries = d.MaxCriticalTries
	}
	if c.ResidualTol == 0 {
		c.ResidualTol = d.ResidualTol
	}
	if c.DecisionRatio == 0 {
		c.DecisionRatio = d.DecisionRatio
	}
	if c.AbsChange == 0 {
		c.AbsChange = d.AbsChange
	}
	if c.LearnQueries == 0 {
		c.LearnQueries = d.LearnQueries
	}
	if c.LearnEpochs == 0 {
		c.LearnEpochs = d.LearnEpochs
	}
	if c.LearnBatch == 0 {
		c.LearnBatch = d.LearnBatch
	}
	if c.LearnRate == 0 {
		c.LearnRate = d.LearnRate
	}
	if c.ConfidenceThreshold == 0 {
		c.ConfidenceThreshold = d.ConfidenceThreshold
	}
	if c.PlateauEpochs == 0 {
		c.PlateauEpochs = d.PlateauEpochs
	}
	if c.ValidationNeurons == 0 {
		c.ValidationNeurons = d.ValidationNeurons
	}
	if c.ValidationDelta == 0 {
		c.ValidationDelta = d.ValidationDelta
	}
	if c.ValidationMajority == 0 {
		c.ValidationMajority = d.ValidationMajority
	}
	if c.ValidationSamples == 0 {
		c.ValidationSamples = d.ValidationSamples
	}
	if c.EquivTol == 0 {
		c.EquivTol = d.EquivTol
	}
	if c.CorrectionPool == 0 {
		c.CorrectionPool = d.CorrectionPool
	}
	if c.MaxCorrectionHamming == 0 {
		c.MaxCorrectionHamming = d.MaxCorrectionHamming
	}
	if c.MaxCorrectionRounds == 0 {
		c.MaxCorrectionRounds = d.MaxCorrectionRounds
	}
	if c.ProbeVotes == 0 {
		c.ProbeVotes = d.ProbeVotes
	}
	if c.QueryRetries == 0 {
		c.QueryRetries = d.QueryRetries
	}
	if c.Workers == 0 {
		c.Workers = d.Workers
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
	return c
}

// BitOrigin records which procedure decided a key bit.
type BitOrigin int

// Bit origins.
const (
	OriginUnknown BitOrigin = iota
	OriginAlgebraic
	OriginLearning
	OriginCorrection
)

// String names the origin.
func (o BitOrigin) String() string {
	switch o {
	case OriginAlgebraic:
		return "algebraic"
	case OriginLearning:
		return "learning"
	case OriginCorrection:
		return "correction"
	default:
		return "unknown"
	}
}

// SiteReport summarizes the attack on one lockable layer.
type SiteReport struct {
	Site           int
	Bits           int
	Algebraic      int // bits decided by key_bit_inference
	Learned        int // bits decided by learning_attack
	Corrected      int // bits flipped by error_correction
	ValidationRuns int
}

// Result is the outcome of a decryption attack.
type Result struct {
	Key     hpnn.Key
	Origins []BitOrigin
	Queries int64
	// Rounds counts oracle round-trips (Query/QueryBatch calls) consumed by
	// the run. Against a remote device each round pays a network latency,
	// so rounds — not queries — dominate the wall clock of a real attack;
	// the query planner exists to shrink this number without changing
	// Queries.
	Rounds int64
	Time   time.Duration
	// SimTime is the simulated channel wall-clock consumed by the run when
	// the oracle stack is channel-simulated (oracle.Clocked — a
	// farm.Transport); zero against a direct oracle. This is the predicted
	// cost of the attack over a real network, the metric `dnnlock farm`
	// sweeps.
	SimTime   time.Duration
	Breakdown *metrics.Breakdown
	// QueriesByProc splits the oracle queries across the four procedures —
	// a query-complexity companion to Figure 3.
	QueriesByProc map[metrics.Procedure]int64
	// RoundsByProc splits the oracle round-trips the same way.
	RoundsByProc map[metrics.Procedure]int64
	// SimByProc splits the simulated channel time across the procedures
	// (empty for runs against a direct oracle).
	SimByProc map[metrics.Procedure]time.Duration
	// BisectRounds and BisectProbes account the critical-point zero search:
	// refinement rounds and the probe evaluations inside them (one per
	// round, so the two are equal).
	BisectRounds int64
	BisectProbes int64
	Sites        []SiteReport
	// Equivalent reports whether the final direct-comparison check between
	// the keyed white-box and the oracle passed.
	Equivalent bool
	// Degraded counts oracle-facing decisions the attack abandoned to ⊥
	// because of persistent transient failures or split votes — each one
	// fell through to the learning attack (§3.6) instead of aborting the
	// run. Always 0 against a clean oracle.
	Degraded int
}
