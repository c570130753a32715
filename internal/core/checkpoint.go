package core

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"time"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/nn"
	"dnnlock/internal/oracle"
)

// CheckpointVersion is the wire-format version written by Checkpoint.Marshal
// and required by UnmarshalCheckpoint. Bump it on any incompatible change to
// the Checkpoint struct; old checkpoints then fail loudly instead of
// resuming into silently wrong state.
const CheckpointVersion = 1

// ErrSuspended is returned by Run / Resume when the OnCheckpoint hook asked
// the attack to stop. The checkpoint that describes the suspension point was
// already delivered to the hook before Run returned; resuming it with Resume
// continues the run bit-identically (see Checkpoint).
var ErrSuspended = errors.New("core: attack suspended at site boundary")

// Checkpoint is the complete resumable state of a decryption attack (Run,
// under every lock scheme) captured at a site boundary — after a site's
// validation settled (or deferred, §3.7) and before the next site starts.
//
// # Wire format
//
// A checkpoint serializes to a single JSON object (Marshal /
// UnmarshalCheckpoint). Field-by-field:
//
//   - version: CheckpointVersion. Mismatches are rejected at decode time.
//   - spec_hash: FNV-1a hash of the lock spec (scheme, alpha, and every
//     protected neuron's site/index/col). Resume refuses a checkpoint whose
//     hash does not match the spec it is being resumed against — the per-bit
//     arrays below are meaningless against a different lock.
//   - seed, rng_draws: the attack RNG is a single math/rand stream seeded
//     with Config.Seed; rng_draws counts raw Source draws consumed so far.
//     Resume reconstructs the stream by re-seeding and discarding that many
//     draws, which restores the exact RNG state (each Source64 call advances
//     the generator by one step regardless of which method drew it).
//   - sites_done: how many sites of the ascending site order (orderedSites)
//     are complete. Resume continues at the next one.
//   - decided, key, confidence, origins: per-bit arrays aligned with
//     spec.Neurons. Resume replays every decided bit into a fresh white-box
//     clone (the same identity-hypothesis clone New builds), which
//     reconstructs the working network exactly under every scheme: the
//     scheme's applier writes each bit absolutely — a flip sign
//     (negation, hardened to ±1 after §3.6), a scaling factor, a bias
//     offset or one producer weight — and those writes are the only state
//     the attack mutates.
//   - pending_bits, pending_sites: the not-yet-validated group carried
//     across deferred sites (mid residual block, §3.7).
//   - sites: the per-site reports accumulated so far (Result.Sites prefix).
//   - queries, rounds, wall_ns, sim_ns, degraded, bisect_rounds,
//     bisect_probes: cumulative run totals at the boundary, all
//     nonnegative. On resume they become the base the new segment's deltas
//     are added to, so the final Result reports whole-run totals, not
//     segment totals.
//   - proc_ns, proc_queries, proc_rounds, proc_sim_ns: the attack's
//     per-procedure ledger (Figure 3), keyed by procedure name: wall time
//     and simulated channel time in integer nanoseconds, queries and
//     rounds as counts. Every key is a procedure of metrics.AllProcedures
//     that ran (so appears in proc_ns), and every value is nonnegative.
//     Resume seeds the new attack's ledger with them, so the resumed
//     Result.Breakdown and its *ByProc maps cover the whole run.
//
// # Resumability invariants
//
// Bit-identical resume (the property the checkpoint tests pin: same key,
// same query count, same round count as an uninterrupted run) requires that
// the oracle answer the resumed segment's queries exactly as the original
// run would have. That holds unconditionally for stateless channels (a
// clean oracle.Oracle, Quantized, LabelOnly). Noisy and Flaky decorators
// keep per-content occurrence counters, so their answers depend on query
// history: resuming against the same live oracle instance (how dnnlockd
// suspends and resumes in-process) is exact, while resuming against a
// freshly built faulty oracle replays the fault stream from zero.
// Budgeted budgets are client-side state and are not carried:
// a resumed run re-arms the budget, which only ever errs permissive.
type Checkpoint struct {
	Version   int    `json:"version"`
	SpecHash  string `json:"spec_hash"`
	Seed      int64  `json:"seed"`
	RNGDraws  uint64 `json:"rng_draws"`
	SitesDone int    `json:"sites_done"`

	Decided    []bool      `json:"decided"`
	Key        []bool      `json:"key"`
	Confidence []float64   `json:"confidence"`
	Origins    []BitOrigin `json:"origins"`

	PendingBits  []int        `json:"pending_bits,omitempty"`
	PendingSites []int        `json:"pending_sites,omitempty"`
	Sites        []SiteReport `json:"sites,omitempty"`

	Queries      int64 `json:"queries"`
	Rounds       int64 `json:"rounds"`
	WallNS       int64 `json:"wall_ns"`
	SimNS        int64 `json:"sim_ns"`
	Degraded     int64 `json:"degraded"`
	BisectRounds int64 `json:"bisect_rounds"`
	BisectProbes int64 `json:"bisect_probes"`

	ProcNS      map[metrics.Procedure]time.Duration `json:"proc_ns,omitempty"`
	ProcQueries map[metrics.Procedure]int64         `json:"proc_queries,omitempty"`
	ProcRounds  map[metrics.Procedure]int64         `json:"proc_rounds,omitempty"`
	ProcSimNS   map[metrics.Procedure]time.Duration `json:"proc_sim_ns,omitempty"`
}

// Marshal serializes the checkpoint to its JSON wire format.
func (ck *Checkpoint) Marshal() ([]byte, error) {
	return json.Marshal(ck)
}

// UnmarshalCheckpoint decodes a checkpoint from its JSON wire format and
// rejects unknown versions.
func UnmarshalCheckpoint(data []byte) (*Checkpoint, error) {
	var ck Checkpoint
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, fmt.Errorf("core: decoding checkpoint: %w", err)
	}
	if ck.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	return &ck, nil
}

// SpecHash computes the lock-spec fingerprint stored in checkpoints: FNV-1a
// over the scheme, alpha, and every protected neuron. Exported so callers
// persisting checkpoints out-of-process can index them by lock.
func SpecHash(spec hpnn.LockSpec) string {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(spec.Scheme))
	put(math.Float64bits(spec.Alpha))
	put(uint64(len(spec.Neurons)))
	for _, pn := range spec.Neurons {
		put(uint64(pn.Site))
		put(uint64(pn.Index))
		put(uint64(pn.Col))
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// validateFor checks a checkpoint's internal consistency against the spec
// and config it is about to be resumed with.
func (ck *Checkpoint) validateFor(spec hpnn.LockSpec, cfg Config) error {
	if ck.Version != CheckpointVersion {
		return fmt.Errorf("core: checkpoint version %d, want %d", ck.Version, CheckpointVersion)
	}
	if got := SpecHash(spec); ck.SpecHash != got {
		return fmt.Errorf("core: checkpoint spec hash %s does not match lock spec %s", ck.SpecHash, got)
	}
	if ck.Seed != cfg.Seed {
		return fmt.Errorf("core: checkpoint seed %d does not match cfg.Seed %d (the RNG fast-forward would diverge)", ck.Seed, cfg.Seed)
	}
	n := spec.NumBits()
	if len(ck.Decided) != n || len(ck.Key) != n || len(ck.Confidence) != n || len(ck.Origins) != n {
		return fmt.Errorf("core: checkpoint bit arrays sized %d/%d/%d/%d, want %d",
			len(ck.Decided), len(ck.Key), len(ck.Confidence), len(ck.Origins), n)
	}
	siteBits := spec.SiteBits()
	if ck.SitesDone < 0 || ck.SitesDone > len(siteBits) {
		return fmt.Errorf("core: checkpoint sites_done %d out of range [0,%d]", ck.SitesDone, len(siteBits))
	}
	for _, b := range ck.PendingBits {
		if b < 0 || b >= n {
			return fmt.Errorf("core: checkpoint pending bit %d out of range [0,%d)", b, n)
		}
	}
	for _, s := range ck.PendingSites {
		if _, ok := siteBits[s]; !ok {
			return fmt.Errorf("core: checkpoint pending site %d is not a site of the lock spec", s)
		}
	}
	for _, c := range [...]struct {
		name string
		v    int64
	}{
		{"queries", ck.Queries}, {"rounds", ck.Rounds}, {"wall_ns", ck.WallNS}, {"sim_ns", ck.SimNS},
		{"degraded", ck.Degraded}, {"bisect_rounds", ck.BisectRounds}, {"bisect_probes", ck.BisectProbes},
	} {
		if c.v < 0 {
			return fmt.Errorf("core: checkpoint %s %d is negative", c.name, c.v)
		}
	}
	if err := checkProcMap("proc_ns", ck.ProcNS, ck.ProcNS); err != nil {
		return err
	}
	if err := checkProcMap("proc_queries", ck.ProcQueries, ck.ProcNS); err != nil {
		return err
	}
	if err := checkProcMap("proc_rounds", ck.ProcRounds, ck.ProcNS); err != nil {
		return err
	}
	return checkProcMap("proc_sim_ns", ck.ProcSimNS, ck.ProcNS)
}

// checkProcMap rejects a per-procedure checkpoint map with a key outside
// metrics.AllProcedures or absent from ran (proc_ns: the procedures that
// ran), or with a negative value. It walks AllProcedures rather than the
// map, so the error it reports does not depend on map order.
func checkProcMap[V ~int64](name string, m map[metrics.Procedure]V, ran map[metrics.Procedure]time.Duration) error {
	known := 0
	for _, p := range metrics.AllProcedures {
		v, ok := m[p]
		if !ok {
			continue
		}
		known++
		if v < 0 {
			return fmt.Errorf("core: checkpoint %s[%s] %d is negative", name, p, int64(v))
		}
		if _, ok := ran[p]; !ok {
			return fmt.Errorf("core: checkpoint %s names %s, which proc_ns does not", name, p)
		}
	}
	if known != len(m) {
		return fmt.Errorf("core: checkpoint %s names a procedure outside %v", name, metrics.AllProcedures)
	}
	return nil
}

// Resume continues a suspended decryption attack from ck. The whiteBox,
// spec, and cfg arguments must describe the same job as the original Run
// call (the spec hash and seed are verified; the rest is the caller's
// contract — dnnlockd re-derives all three from the stored job spec), and
// orc must satisfy the resumability invariants documented on Checkpoint.
// The resumed run continues to honor cfg.OnCheckpoint, so a job may be
// suspended and resumed any number of times.
func Resume(whiteBox *nn.Network, spec hpnn.LockSpec, orc oracle.Interface, cfg Config, ck *Checkpoint) (*Result, error) {
	a := New(whiteBox, spec, orc, cfg)
	if err := ck.validateFor(spec, a.cfg); err != nil {
		return nil, err
	}
	return a.runFrom(a.restore(ck))
}

// resumeBase carries the prior-segment totals of a resumed run into the
// attack loop; its zero value means a fresh run.
type resumeBase struct {
	sitesDone    int
	reports      []SiteReport
	pendingBits  []int
	pendingSites []int
	rngDraws     uint64

	queries, rounds int64
	wall, sim       time.Duration
}

// restore replays a checkpoint into a freshly constructed attack: every
// decided bit is written back into the identity-hypothesis white box via
// setBit (reconstructing the working network exactly — the applier's
// absolute per-bit writes are the only state the attack mutates), the
// cumulative counters that live on the attack (degradations, bisection
// accounting) are re-armed so they keep counting from their checkpointed
// values, and each procedure that ran is seeded into the ledger as one
// phase holding its checkpointed totals.
func (a *Attack) restore(ck *Checkpoint) resumeBase {
	for i := range ck.Decided {
		if ck.Decided[i] {
			a.setBit(i, ck.Key[i], ck.Confidence[i], ck.Origins[i])
		}
	}
	a.degraded.Store(ck.Degraded)
	a.crit.rounds.Store(ck.BisectRounds)
	a.crit.probes.Store(ck.BisectProbes)
	for _, p := range metrics.AllProcedures {
		if wall, ran := ck.ProcNS[p]; ran {
			a.bd.AddPhase(p, wall, ck.ProcQueries[p], ck.ProcRounds[p], ck.ProcSimNS[p])
		}
	}
	return resumeBase{
		sitesDone:    ck.SitesDone,
		reports:      append([]SiteReport(nil), ck.Sites...),
		pendingBits:  append([]int(nil), ck.PendingBits...),
		pendingSites: append([]int(nil), ck.PendingSites...),
		rngDraws:     ck.RNGDraws,
		queries:      ck.Queries,
		rounds:       ck.Rounds,
		wall:         time.Duration(ck.WallNS),
		sim:          time.Duration(ck.SimNS),
	}
}

// snapshot captures the attack's complete resumable state at a site
// boundary. Its totals are base (the prior segments' totals on a resumed
// run) plus this segment's usage since seg, as in result.
func (a *Attack) snapshot(base *resumeBase, seg segment, sitesDone int, reports []SiteReport,
	pending *sitePending, draws uint64) *Checkpoint {

	n := a.spec.NumBits()
	ck := &Checkpoint{
		Version:      CheckpointVersion,
		SpecHash:     SpecHash(a.spec),
		Seed:         a.cfg.Seed,
		RNGDraws:     draws,
		SitesDone:    sitesDone,
		Decided:      append([]bool(nil), a.decided...),
		Key:          make([]bool, n),
		Confidence:   append([]float64(nil), a.confidence...),
		Origins:      append([]BitOrigin(nil), a.origins...),
		PendingBits:  append([]int(nil), pending.bits...),
		PendingSites: append([]int(nil), pending.sites...),
		Sites:        append([]SiteReport(nil), reports...),
		Queries:      base.queries + a.orc.Queries() - seg.queries,
		Rounds:       base.rounds + a.orc.Rounds() - seg.rounds,
		//lint:ignore determinism telemetry: checkpointed wall time reported to the operator, not used in computation
		WallNS:       int64(base.wall + time.Since(seg.start)),
		SimNS:        int64(base.sim + simElapsed(a.orc) - seg.sim),
		Degraded:     a.degraded.Load(),
		BisectRounds: a.crit.rounds.Load(),
		BisectProbes: a.crit.probes.Load(),
	}
	for i, pn := range a.spec.Neurons {
		ck.Key[i] = a.applier.read(a.white, pn, i)
	}
	ledger := a.bd.Snapshot()
	ck.ProcNS, ck.ProcQueries, ck.ProcRounds, ck.ProcSimNS = ledger.Times, ledger.Queries, ledger.Rounds, ledger.Sim
	return ck
}

// countedSource is a math/rand Source64 that counts raw draws, making the
// attack's RNG state serializable as (seed, draw count). Every rand.Rand
// derivation — Float64, Perm, rejection loops in Int63n — bottoms out in
// Int63/Uint64 calls, each of which advances the underlying generator by
// exactly one step, so replaying N discards after re-seeding restores the
// stream exactly.
type countedSource struct {
	src rand.Source64
	n   uint64
}

func newCountedSource(seed int64) *countedSource {
	return &countedSource{src: rand.NewSource(seed).(rand.Source64)}
}

func (c *countedSource) Int63() int64 {
	c.n++
	return c.src.Int63()
}

func (c *countedSource) Uint64() uint64 {
	c.n++
	return c.src.Uint64()
}

func (c *countedSource) Seed(seed int64) {
	c.src.Seed(seed)
	c.n = 0
}

// draws reports how many raw source draws have been consumed.
func (c *countedSource) draws() uint64 { return c.n }

// skip fast-forwards the source by n raw draws without counting them (the
// count restarts at the checkpointed value the caller is replaying to).
func (c *countedSource) skip(n uint64) {
	for i := uint64(0); i < n; i++ {
		c.src.Uint64()
	}
	c.n = n
}
