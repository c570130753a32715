package core

import (
	"math/rand"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/oracle"
)

// runDecrypt locks the network, runs the full Algorithm 2 attack, and
// checks 100% fidelity.
func runDecrypt(t *testing.T, net *nn.Network, keyBits int, seed int64, cfg Config) *Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	white, spec, orc, key := lockAndOracle(net, hpnn.Config{
		Scheme: hpnn.Negation, KeyBits: keyBits, Rng: rng,
	})
	cfg.Seed = seed
	res, err := Run(white, spec, orc, cfg)
	if err != nil {
		t.Fatalf("Run failed: %v", err)
	}
	if fid := res.Key.Fidelity(key); fid != 1 {
		t.Fatalf("fidelity %.3f, recovered %v want %v", fid, res.Key, key)
	}
	if !res.Equivalent {
		t.Fatal("result not marked equivalent")
	}
	if res.Queries <= 0 {
		t.Fatal("no queries recorded")
	}
	return res
}

func TestDecryptTinyMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	res := runDecrypt(t, models.TinyMLP(rng), 10, 11, DefaultConfig())
	// The contractive MLP should be solved almost entirely algebraically.
	alg := 0
	for _, s := range res.Sites {
		alg += s.Algebraic
	}
	if alg < 8 {
		t.Fatalf("only %d/10 bits algebraic on a contractive MLP", alg)
	}
}

func TestDecryptTinyMLPMultipleSeeds(t *testing.T) {
	for seed := int64(20); seed < 23; seed++ {
		rng := rand.New(rand.NewSource(seed))
		runDecrypt(t, models.TinyMLP(rng), 8, seed, DefaultConfig())
	}
}

func TestDecryptExpansiveMLPUsesLearning(t *testing.T) {
	// Expansive first layer: the algebraic path must fail and the
	// learning attack must carry the layer.
	rng := rand.New(rand.NewSource(30))
	net := nn.NewNetwork(
		nn.NewDense(6, 14).InitHe(rng), nn.NewFlip(14), nn.NewReLU(14),
		nn.NewDense(14, 8).InitHe(rng), nn.NewFlip(8), nn.NewReLU(8),
		nn.NewDense(8, 4).InitHe(rng),
	)
	res := runDecrypt(t, net, 8, 31, DefaultConfig())
	learned := 0
	for _, s := range res.Sites {
		learned += s.Learned
	}
	if learned == 0 {
		t.Fatal("expected learning attack on the expansive layer")
	}
}

func TestDecryptTinyLeNet(t *testing.T) {
	if testing.Short() {
		t.Skip("conv attack test")
	}
	rng := rand.New(rand.NewSource(40))
	runDecrypt(t, models.TinyLeNet(rng), 8, 41, DefaultConfig())
}

func TestDecryptTinyResNet(t *testing.T) {
	if testing.Short() {
		t.Skip("residual attack test")
	}
	rng := rand.New(rand.NewSource(50))
	runDecrypt(t, models.TinyResNet(rng), 6, 51, DefaultConfig())
}

func TestDecryptTinyVTransformer(t *testing.T) {
	if testing.Short() {
		t.Skip("attention attack test")
	}
	rng := rand.New(rand.NewSource(60))
	runDecrypt(t, models.TinyVTransformer(rng), 6, 61, DefaultConfig())
}

// TestDecryptFuzzedArchitectures runs the full Algorithm 2 attack on every
// architecture family of fuzzedEquivNets — tiny LeNet, ResNet and ViT plus
// three random-shape MLPs — and requires exact key recovery on each.
func TestDecryptFuzzedArchitectures(t *testing.T) {
	seedRng := rand.New(rand.NewSource(703))
	for bi, build := range fuzzedEquivNets(seedRng) {
		rng := rand.New(rand.NewSource(int64(900 + bi)))
		net := build(rng)
		lm, key := hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Negation, KeyBits: 6, Rng: rng})
		cfg := DefaultConfig()
		cfg.Seed = 11
		res, err := Run(lm.WhiteBox(), lm.Spec, oracle.New(lm, key), cfg)
		if err != nil {
			t.Fatalf("net %d: %v", bi, err)
		}
		if fid := res.Key.Fidelity(key); fid != 1 {
			t.Fatalf("net %d: attack fidelity %.3f", bi, fid)
		}
	}
}

func TestDecryptRecordsBreakdown(t *testing.T) {
	rng := rand.New(rand.NewSource(70))
	res := runDecrypt(t, models.TinyMLP(rng), 6, 71, DefaultConfig())
	if res.Breakdown.Total() <= 0 {
		t.Fatal("no breakdown recorded")
	}
	if res.Time <= 0 {
		t.Fatal("no time recorded")
	}
	// Per-procedure query accounting: the split must cover almost all
	// queries (only the final equivalence check sits outside a procedure).
	var split int64
	for _, q := range res.QueriesByProc {
		split += q
	}
	if split <= 0 || split > res.Queries {
		t.Fatalf("query split %d vs total %d", split, res.Queries)
	}
}

func TestDecryptAblationNoAlgebraic(t *testing.T) {
	// With the algebraic path disabled, learning + validation/correction
	// must still recover the key (slower path of the ablation bench).
	cfg := DefaultConfig()
	cfg.DisableAlgebraic = true
	rng := rand.New(rand.NewSource(80))
	res := runDecrypt(t, models.TinyMLP(rng), 6, 81, cfg)
	for _, s := range res.Sites {
		if s.Algebraic != 0 {
			t.Fatal("algebraic bits recorded despite ablation")
		}
	}
}

func TestMonolithicOnTinyMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	net := models.TinyMLP(rng)
	white, spec, orc, key := lockAndOracle(net, hpnn.Config{
		Scheme: hpnn.Negation, KeyBits: 6, Rng: rng,
	})
	cfg := DefaultConfig()
	cfg.LearnQueries = 400
	cfg.LearnEpochs = 300
	rep, err := Monolithic(white, spec, orc, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Key) != 6 {
		t.Fatalf("key length %d", len(rep.Key))
	}
	if rep.Queries != 400 {
		t.Fatalf("queries = %d, want the dataset size", rep.Queries)
	}
	if rep.Epochs == 0 || len(rep.Losses) != rep.Epochs {
		t.Fatal("loss trajectory not recorded")
	}
	// On a tiny network the monolithic attack should do clearly better
	// than chance.
	if fid := rep.Key.Fidelity(key); fid < 0.6 {
		t.Fatalf("monolithic fidelity %.2f below sanity bound", fid)
	}
}

func TestMonolithicMonitorStops(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	net := models.TinyMLP(rng)
	white, spec, orc, _ := lockAndOracle(net, hpnn.Config{
		Scheme: hpnn.Negation, KeyBits: 4, Rng: rng,
	})
	calls := 0
	rep, err := Monolithic(white, spec, orc, DefaultConfig(), func(epoch int, key hpnn.Key) bool {
		calls++
		return epoch < 2
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Epochs != 3 || calls != 3 {
		t.Fatalf("monitor stop failed: epochs=%d calls=%d", rep.Epochs, calls)
	}
}
