package core

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/metrics"
	"dnnlock/internal/models"
	"dnnlock/internal/obs"
	"dnnlock/internal/oracle"
)

// TestDecryptRecoversPlantedKeyProperty is the repository's headline
// property: for random contractive MLPs, random lock placements, and
// random keys, Algorithm 2 returns exactly the planted key (Theorem 4's
// correctness, checked empirically).
func TestDecryptRecoversPlantedKeyProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := models.TinyMLP(rng)
		bits := 4 + rng.Intn(8)
		lm, key := hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Negation, KeyBits: bits, Rng: rng})
		orc := oracle.New(lm, key)
		cfg := DefaultConfig()
		cfg.Seed = seed + 1
		res, err := Run(lm.WhiteBox(), lm.Spec, orc, cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return res.Key.Fidelity(key) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 12}); err != nil {
		t.Fatal(err)
	}
}

// TestDecryptVariantProperty extends the planted-key property to a random
// §3.9 scheme per trial.
func TestDecryptVariantProperty(t *testing.T) {
	if testing.Short() {
		t.Skip("property sweep")
	}
	f := func(seed int64) bool {
		_, ok := variantRun(t, seed, nil)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 8}); err != nil {
		t.Fatal(err)
	}
}

// TestDecryptVariantSeeds pins generator seeds of TestDecryptVariantProperty
// whose runs used to report success with a wrong key (0001 for 0011 at
// both): a scaling bit that no hypothesis test decided kept its default 0,
// and validation and the 16-sample final check both missed the rare inputs
// that tell its two hypotheses apart. The bit is now settled against the
// oracle as error correction; the traced run's rollup must equal its
// ledger, so those queries are counted once.
func TestDecryptVariantSeeds(t *testing.T) {
	for _, seed := range []int64{3627532199788613424, 25673398} {
		var sink bytes.Buffer
		tr := obs.New(obs.WithSink(&sink))
		res, ok := variantRun(t, seed, tr)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("seed %d: planted key not recovered", seed)
			continue
		}
		trace, err := obs.ReadTrace(&sink)
		if err != nil {
			t.Fatal(err)
		}
		anchors := trace.Anchors()
		if len(anchors) != 1 {
			t.Fatalf("seed %d: %d anchors, want 1", seed, len(anchors))
		}
		_, queries, rounds, _ := trace.RollupFromSpans(anchors[0].ID)
		for _, p := range metrics.AllProcedures {
			if queries[string(p)] != res.QueriesByProc[p] || rounds[string(p)] != res.RoundsByProc[p] {
				t.Errorf("seed %d: %s traced %d queries / %d rounds, ledger %d / %d", seed, p,
					queries[string(p)], rounds[string(p)], res.QueriesByProc[p], res.RoundsByProc[p])
			}
		}
	}
}

// variantRun is the variant property's generator and check: seed draws a
// TinyMLP, a §3.9 scheme, its parameter and a 4-bit lock, and the attack
// (at seed+1, traced by tr when non-nil) must return the planted key
// without error.
func variantRun(t *testing.T, seed int64, tr *obs.Tracer) (*Result, bool) {
	t.Helper()
	schemes := []hpnn.Scheme{hpnn.Scaling, hpnn.BiasShift, hpnn.WeightPerturb}
	rng := rand.New(rand.NewSource(seed))
	net := models.TinyMLP(rng)
	scheme := schemes[rng.Intn(len(schemes))]
	alpha := 0.4 + rng.Float64()
	lm, key := hpnn.Lock(net, hpnn.Config{Scheme: scheme, Alpha: alpha, KeyBits: 4, Rng: rng})
	orc := oracle.New(lm, key)
	cfg := DefaultConfig()
	cfg.Seed = seed + 1
	cfg.Tracer = tr
	res, err := Run(lm.WhiteBox(), lm.Spec, orc, cfg)
	if err != nil {
		t.Logf("seed %d scheme %v: %v", seed, scheme, err)
		return res, false
	}
	if res.Key.Fidelity(key) != 1 {
		t.Logf("seed %d scheme %v: fidelity %.2f (key %v, want %v)", seed, scheme, res.Key.Fidelity(key), res.Key, key)
		return res, false
	}
	return res, true
}

// TestQueriesGrowWithKeySize checks the Table 1 query-complexity trend.
func TestQueriesGrowWithKeySize(t *testing.T) {
	queries := func(bits int) int64 {
		rng := rand.New(rand.NewSource(600))
		net := models.TinyMLP(rng)
		lm, key := hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Negation, KeyBits: bits, Rng: rng})
		orc := oracle.New(lm, key)
		cfg := DefaultConfig()
		cfg.Seed = 601
		res, err := Run(lm.WhiteBox(), lm.Spec, orc, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res.Queries
	}
	q4, q12 := queries(4), queries(12)
	if q12 <= q4 {
		t.Fatalf("queries did not grow with key size: %d (4 bits) vs %d (12 bits)", q4, q12)
	}
}
