package core

import (
	"math/rand"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
	"dnnlock/internal/oracle"
)

// runVariantAttack locks a TinyMLP with the given scheme and checks exact
// key recovery through Run.
func runVariantAttack(t *testing.T, scheme hpnn.Scheme, alpha float64, keyBits int, seed int64) *Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := models.TinyMLP(rng)
	lm, key := hpnn.Lock(net, hpnn.Config{Scheme: scheme, Alpha: alpha, KeyBits: keyBits, Rng: rng})
	orc := oracle.New(lm, key)
	cfg := DefaultConfig()
	cfg.Seed = seed
	res, err := Run(lm.WhiteBox(), lm.Spec, orc, cfg)
	if err != nil {
		t.Fatalf("%v attack failed: %v", scheme, err)
	}
	if fid := res.Key.Fidelity(key); fid != 1 {
		t.Fatalf("%v fidelity %.3f: got %v want %v", scheme, fid, res.Key, key)
	}
	return res
}

func TestVariantScaling(t *testing.T) {
	runVariantAttack(t, hpnn.Scaling, 0.5, 6, 201)
}

func TestVariantScalingAmplifying(t *testing.T) {
	runVariantAttack(t, hpnn.Scaling, 2.0, 4, 202)
}

// TestVariantScalingCrowdedSite is the regression test for the fan-out-cone
// witness bug: with 8 key bits on a tiny MLP, several protected neurons
// share one flip site, and a hypothesis witness chosen where ANOTHER
// undecided neuron of the site is active misplaces the predicted downstream
// hyperplane on both clones — the kink test then sees no kink for either
// hypothesis, most bits degrade to ⊥, and the defaulted site fails
// validation beyond error correction's Hamming budget (this exact
// configuration is the examples/variants scaling run, which used to abort
// with "variant site 0 failed validation"). distinguishableCritical now
// requires every other undecided same-site neuron to be ReLU-muted at a
// fan-out witness.
func TestVariantScalingCrowdedSite(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	net := models.TinyMLP(rng)
	lm, key := hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Scaling, Alpha: 0.5, KeyBits: 8, Rng: rng})
	cfg := DefaultConfig()
	cfg.Seed = 2
	res, err := Run(lm.WhiteBox(), lm.Spec, oracle.New(lm, key), cfg)
	if err != nil {
		t.Fatalf("scaling attack failed: %v", err)
	}
	if fid := res.Key.Fidelity(key); fid != 1 {
		t.Fatalf("fidelity %.3f: got %v want %v", fid, res.Key, key)
	}
}

// TestVariantScalingSeedSweep runs the crowded-site configuration across
// several lock/attack seeds so the witness restriction is exercised on many
// activation patterns, not one lucky draw.
func TestVariantScalingSeedSweep(t *testing.T) {
	for seed := int64(300); seed < 305; seed++ {
		runVariantAttack(t, hpnn.Scaling, 0.5, 8, seed)
	}
}

func TestVariantBiasShift(t *testing.T) {
	runVariantAttack(t, hpnn.BiasShift, 0.8, 6, 203)
}

func TestVariantBiasShiftNegative(t *testing.T) {
	runVariantAttack(t, hpnn.BiasShift, -0.6, 4, 204)
}

func TestVariantWeightPerturb(t *testing.T) {
	runVariantAttack(t, hpnn.WeightPerturb, 1.2, 4, 205)
}

func TestApplierRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(207))
	for _, scheme := range []hpnn.Scheme{hpnn.Negation, hpnn.Scaling, hpnn.BiasShift, hpnn.WeightPerturb} {
		net := models.TinyMLP(rng)
		alpha := 0.0
		if scheme != hpnn.Negation {
			alpha = 0.7
		}
		lm, _ := hpnn.Lock(net, hpnn.Config{Scheme: scheme, Alpha: alpha, KeyBits: 5, Rng: rng})
		white := lm.WhiteBox()
		ap := applierFor(white, lm.Spec)
		work := ap.clone(white)
		for i, pn := range lm.Spec.Neurons {
			bit := i%2 == 1
			ap.apply(work, pn, i, bit)
			if got := ap.read(work, pn, i); got != bit {
				t.Fatalf("%v: read-after-apply mismatch at bit %d", scheme, i)
			}
		}
		// Clearing all bits restores the white-box function.
		for i, pn := range lm.Spec.Neurons {
			ap.apply(work, pn, i, false)
		}
		x := make([]float64, white.InSize())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		yw := white.Forward(x)
		yc := work.Forward(x)
		for i := range yw {
			if yw[i] != yc[i] {
				t.Fatalf("%v: cleared clone differs from white box", scheme)
			}
		}
	}
}

func TestApplierCloneIsolation(t *testing.T) {
	// Applying bits to a clone must never leak into the source network,
	// for every scheme (the weight-perturb applier mutates Dense weights).
	rng := rand.New(rand.NewSource(208))
	for _, scheme := range []hpnn.Scheme{hpnn.Negation, hpnn.Scaling, hpnn.BiasShift, hpnn.WeightPerturb} {
		net := models.TinyMLP(rng)
		alpha := 0.0
		if scheme != hpnn.Negation {
			alpha = 0.9
		}
		lm, _ := hpnn.Lock(net, hpnn.Config{Scheme: scheme, Alpha: alpha, KeyBits: 4, Rng: rng})
		white := lm.WhiteBox()
		ap := applierFor(white, lm.Spec)
		x := make([]float64, white.InSize())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		before := white.Forward(x)
		clone := ap.clone(white)
		for i, pn := range lm.Spec.Neurons {
			ap.apply(clone, pn, i, true)
		}
		after := white.Forward(x)
		for i := range before {
			if before[i] != after[i] {
				t.Fatalf("%v: clone mutation leaked into source", scheme)
			}
		}
	}
}

func TestGatingReLULookup(t *testing.T) {
	rng := rand.New(rand.NewSource(209))
	// MLP: every flip is gated.
	mlp := models.TinyMLP(rng)
	lmM, keyM := hpnn.Lock(mlp, hpnn.Config{Scheme: hpnn.Negation, KeyBits: 2, Rng: rng})
	aM := New(lmM.WhiteBox(), lmM.Spec, oracle.New(lmM, keyM), DefaultConfig())
	if aM.gatingReLU(0) < 0 || aM.gatingReLU(1) < 0 {
		t.Fatal("MLP flips should be gated")
	}
	// ResNet: the block's second flip is not directly gated (the ReLU sits
	// after the residual add).
	res := models.TinyResNet(rng)
	lmR, keyR := hpnn.Lock(res, hpnn.Config{Scheme: hpnn.Negation, KeyBits: 3, Rng: rng})
	aR := New(lmR.WhiteBox(), lmR.Spec, oracle.New(lmR, keyR), DefaultConfig())
	if aR.gatingReLU(0) < 0 {
		t.Fatal("stem flip should be gated")
	}
	if aR.gatingReLU(2) >= 0 {
		t.Fatal("post-conv2 flip should not be directly gated")
	}
}
