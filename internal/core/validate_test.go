package core

import (
	"errors"
	"math/rand"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// attackWithTrueKey builds an attack whose white box carries the true key
// for all bits at sites < uptoSite and marks them decided (the state
// Algorithm 2 reaches after finishing those layers).
func attackWithTrueKey(t *testing.T, seed int64, keyBits int) (*Attack, hpnn.Key, map[int][]int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := models.TinyMLP(rng)
	lm, key := hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Negation, KeyBits: keyBits, Rng: rng})
	orc := oracle.New(lm, key)
	a := New(lm.WhiteBox(), lm.Spec, orc, DefaultConfig())
	return a, key, lm.Spec.SiteBits()
}

// validateOrFail runs keyVectorValidation, failing the test on oracle error
// (the clean oracle never errors).
func validateOrFail(t *testing.T, a *Attack, sites []int, rng *rand.Rand) bool {
	t.Helper()
	ok, err := a.keyVectorValidation(a.white, sites, rng)
	if err != nil {
		t.Fatalf("keyVectorValidation: %v", err)
	}
	return ok
}

// correctOrFail runs errorCorrection, failing the test on oracle error.
func correctOrFail(t *testing.T, a *Attack, sites, bits []int, rng *rand.Rand) bool {
	t.Helper()
	ok, err := a.errorCorrection(sites, bits, rng)
	if err != nil {
		t.Fatalf("errorCorrection: %v", err)
	}
	return ok
}

func TestValidationAcceptsCorrectKey(t *testing.T) {
	a, key, bySite := attackWithTrueKey(t, 301, 8)
	for _, si := range bySite[0] {
		a.setBit(si, key[si], 1, OriginAlgebraic)
	}
	rng := rand.New(rand.NewSource(302))
	if !validateOrFail(t, a, []int{0}, rng) {
		t.Fatal("validation rejected the correct layer-1 key")
	}
}

func TestValidationRejectsCorruptedKey(t *testing.T) {
	a, key, bySite := attackWithTrueKey(t, 303, 8)
	for i, si := range bySite[0] {
		bit := key[si]
		if i == 0 {
			bit = !bit // inject a single-bit error
		}
		a.setBit(si, bit, 1, OriginAlgebraic)
	}
	rng := rand.New(rand.NewSource(304))
	if validateOrFail(t, a, []int{0}, rng) {
		t.Fatal("validation accepted a corrupted layer-1 key")
	}
}

// repairAtWidths corrupts the site-0 bits at the given positions of an
// 8-bit lock (marked least confident, conf), checks that validation rejects
// the key, and lets error correction repair it, once with one worker and
// once with eight. Both widths must commit the true key at the same oracle
// queries and rounds: correction tries candidates in order whatever the
// worker count.
func repairAtWidths(t *testing.T, seed int64, corrupt map[int]bool, conf float64) {
	t.Helper()
	var queries, rounds [2]int64
	for w, workers := range []int{1, 8} {
		a, key, bySite := attackWithTrueKey(t, seed, 8)
		a.cfg.Workers = workers
		bits := bySite[0]
		for i, si := range bits {
			if corrupt[i] {
				a.setBit(si, !key[si], conf, OriginLearning)
			} else {
				a.setBit(si, key[si], 1, OriginLearning)
			}
		}
		rng := rand.New(rand.NewSource(seed + 1))
		if validateOrFail(t, a, []int{0}, rng) {
			t.Fatalf("workers=%d: precondition: corrupted key should fail validation", workers)
		}
		if !correctOrFail(t, a, []int{0}, bits, rng) {
			t.Fatalf("workers=%d: error correction failed to repair a %d-bit error", workers, len(corrupt))
		}
		for _, si := range bits {
			if a.CurrentKey()[si] != key[si] {
				t.Fatalf("workers=%d: error correction settled on a wrong key", workers)
			}
		}
		queries[w], rounds[w] = a.orc.Queries(), a.orc.Rounds()
	}
	if queries[0] != queries[1] || rounds[0] != rounds[1] {
		t.Fatalf("one worker: %d queries %d rounds; eight workers: %d queries %d rounds",
			queries[0], rounds[0], queries[1], rounds[1])
	}
}

func TestErrorCorrectionRepairsOneBit(t *testing.T) {
	repairAtWidths(t, 305, map[int]bool{1: true}, 0.05)
}

func TestErrorCorrectionRepairsTwoBits(t *testing.T) {
	repairAtWidths(t, 307, map[int]bool{0: true, 2: true}, 0.1)
}

// TestValidationBatchMatchesDirectQueries: one oracle batch carries every
// vote's probe group, repeated ProbeVotes times, and each vote reads its own
// rows. Real votes (white-box critical points of the correct prefix)
// alternate with decoys at random points where the oracle is affine; each
// vote's decision must equal the one computed from direct queries of its
// six points.
func TestValidationBatchMatchesDirectQueries(t *testing.T) {
	a, key, bySite := attackWithTrueKey(t, 301, 8)
	for _, si := range bySite[0] {
		a.setBit(si, key[si], 1, OriginAlgebraic)
	}
	reluSite, mode := a.validationProbe([]int{0})
	if mode != modeKink {
		t.Fatalf("expected kink probe mode, got %d", mode)
	}
	d := a.cfg.probeStep(a.cfg.ValidationDelta)
	rng := rand.New(rand.NewSource(302))
	var probes []voteProbe
	for j := 0; j < a.white.ReLUs()[reluSite].N; j++ {
		p := a.planProbe(a.white, reluSite, j, d, rng)
		if p.x0 == nil {
			continue
		}
		x := randomPoint(a.white.InSize(), a.cfg.InputLim, rng)
		ctrl := tensor.VecClone(x)
		tensor.AXPY(3*d, p.v, ctrl)
		probes = append(probes, p, voteProbe{x0: x, ctrl: ctrl, v: p.v})
	}
	orc := a.orc
	for _, reps := range []int{1, 3} {
		a.cfg.ProbeVotes = reps
		q0, r0 := orc.Queries(), orc.Rounds()
		hits, err := a.kinkVotes(nil, probes, d)
		if err != nil {
			t.Fatal(err)
		}
		if q, r := orc.Queries()-q0, orc.Rounds()-r0; q != int64(6*reps*len(probes)) || r != 1 {
			t.Fatalf("ProbeVotes=%d: batch of %d votes took %d queries in %d rounds, want %d in 1",
				reps, len(probes), q, r, 6*reps*len(probes))
		}
		real, decoys := 0, 0
		for k, p := range probes {
			at := func(x []float64, s float64) []float64 {
				xs := tensor.VecClone(x)
				tensor.AXPY(s*d, p.v, xs)
				y, err := orc.Query(xs)
				if err != nil {
					t.Fatal(err)
				}
				return y
			}
			kink := maxAbsSecondDiff(at(p.x0, 0), at(p.x0, 1), at(p.x0, -1))
			bg := maxAbsSecondDiff(at(p.ctrl, 0), at(p.ctrl, 1), at(p.ctrl, -1))
			if want := kink > 10*a.calibrated(bg)+a.absChange(); hits[k] != want {
				t.Fatalf("ProbeVotes=%d: vote %d decided %v in the batch, %v from direct queries", reps, k, hits[k], want)
			}
			if hits[k] && k%2 == 0 {
				real++
			} else if hits[k] {
				decoys++
			}
		}
		if real == 0 || decoys > 0 {
			t.Fatalf("ProbeVotes=%d: %d real votes and %d decoys detected a kink", reps, real, decoys)
		}
	}
}

// TestValidationPropagatesTerminalErrors: a validation whose vote batch
// fails terminally (budget exhausted) returns the cause through errors.Is,
// and no query reaches the oracle.
func TestValidationPropagatesTerminalErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(88))
	lm, key := hpnn.Lock(models.TinyMLP(rng), hpnn.Config{Scheme: hpnn.Negation, KeyBits: 8, Rng: rng})
	orc := oracle.New(lm, key)
	cfg := DefaultConfig()
	cfg.Workers = 4
	a := New(lm.WhiteBox(), lm.Spec, oracle.Budgeted(orc, 0), cfg)
	for _, si := range lm.Spec.SiteBits()[0] {
		a.setBit(si, key[si], 1, OriginAlgebraic)
	}
	if _, mode := a.validationProbe([]int{0}); mode != modeKink {
		t.Fatalf("expected kink probe mode, got %d", mode)
	}
	_, err := a.keyVectorValidation(a.white, []int{0}, rand.New(rand.NewSource(89)))
	if !errors.Is(err, oracle.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want ErrBudgetExhausted", err)
	}
	if orc.Queries() != 0 {
		t.Fatalf("exhausted budget still let %d queries through", orc.Queries())
	}
}

func TestValidationLastLayerDirectCompare(t *testing.T) {
	a, key, _ := attackWithTrueKey(t, 309, 6)
	// Decide every bit correctly: validation should use direct comparison
	// and pass.
	for si := range key {
		a.setBit(si, key[si], 1, OriginAlgebraic)
	}
	rng := rand.New(rand.NewSource(310))
	if _, mode := a.validationProbe([]int{1}); mode != modeDirect {
		t.Fatalf("expected direct-compare mode, got %d", mode)
	}
	if !validateOrFail(t, a, []int{1}, rng) {
		t.Fatal("direct comparison rejected the full correct key")
	}
	// Corrupt one final-layer bit: direct comparison must fail.
	a.setBit(0, !key[0], 1, OriginAlgebraic)
	if validateOrFail(t, a, []int{1}, rng) {
		t.Fatal("direct comparison accepted a wrong key")
	}
}

func TestValidationProbeDefersInsideResidualBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(311))
	net := models.TinyResNet(rng)
	lm, key := hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Negation, KeyBits: 6, Rng: rng})
	orc := oracle.New(lm, key)
	a := New(lm.WhiteBox(), lm.Spec, orc, DefaultConfig())
	bySite := lm.Spec.SiteBits()
	// Decide site 0 and site 1 (first conv in the block); sites 2 bits
	// remain undecided.
	for _, si := range append(bySite[0], bySite[1]...) {
		a.setBit(si, key[si], 1, OriginAlgebraic)
	}
	if _, mode := a.validationProbe([]int{1}); mode != modeDefer {
		t.Fatalf("expected deferral inside the residual block, got mode %d", mode)
	}
	// Stem alone is probeable.
	if _, mode := a.validationProbe([]int{0}); mode != modeKink {
		t.Fatalf("expected kink probe for the stem, got mode %d", mode)
	}
}

func TestDirectCompareTolerance(t *testing.T) {
	a, key, _ := attackWithTrueKey(t, 312, 4)
	for si := range key {
		a.setBit(si, key[si], 1, OriginAlgebraic)
	}
	rng := rand.New(rand.NewSource(313))
	ok, err := a.directCompare(nil, a.white, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("direct compare rejected the exact network")
	}
	a.setBit(0, !key[0], 1, OriginAlgebraic)
	ok, err = a.directCompare(nil, a.white, rng)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("direct compare accepted a wrong key")
	}
}
