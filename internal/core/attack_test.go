package core

import (
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
)

func TestParallelForCoversAllIndices(t *testing.T) {
	a, _, _ := attackWithTrueKey(t, 401, 4)
	for _, workers := range []int{1, 4, 16} {
		a.cfg.Workers = workers
		var hits [37]atomic.Int64
		a.parallelFor(len(hits), 5, func(i int, rng *rand.Rand) {
			if rng == nil {
				t.Error("nil rng")
			}
			hits[i].Add(1)
		})
		for i := range hits {
			if hits[i].Load() != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, hits[i].Load())
			}
		}
	}
}

// TestParallelForDeterministicRNGSeeds pins parallelFor's RNG contract:
// index i draws exactly the stream of a fresh rand.NewSource(seedBase+i),
// whichever worker runs it and whatever that worker drew before. Indices
// draw different amounts (i%5+1 rounds) through every draw method the
// attack uses, so state leaking from one index into the next on a reused
// RNG would show.
func TestParallelForDeterministicRNGSeeds(t *testing.T) {
	a, _, _ := attackWithTrueKey(t, 402, 4)
	draws := func(i int, rng *rand.Rand) []float64 {
		var out []float64
		buf := make([]byte, 5)
		for r := 0; r < i%5+1; r++ {
			out = append(out, rng.Float64(), rng.NormFloat64(), float64(rng.Intn(1000)))
			for _, p := range rng.Perm(6) {
				out = append(out, float64(p))
			}
			rng.Read(buf)
			for _, b := range buf {
				out = append(out, float64(b))
			}
		}
		return out
	}
	const n, seedBase = 20, 77
	for _, workers := range []int{1, 8} {
		a.cfg.Workers = workers
		got := make([][]float64, n)
		a.parallelFor(n, seedBase, func(i int, rng *rand.Rand) {
			got[i] = draws(i, rng)
		})
		for i := range got {
			want := draws(i, rand.New(rand.NewSource(seedBase+int64(i))))
			if !reflect.DeepEqual(got[i], want) {
				t.Fatalf("workers=%d: index %d drew %v, a fresh source draws %v", workers, i, got[i], want)
			}
		}
	}
}

// raceEnabled is set under -race (race_test.go): the race detector makes
// sync.Pool drop a random share of Puts, so pooled-allocation bounds
// cannot hold there.
var raceEnabled bool

// TestParallelForAllocFree pins the pooled generators: with one worker, a
// steady-state parallelFor call allocates nothing, because its generator
// comes from rngPool and is reseeded per index instead of being built
// around a fresh source.
func TestParallelForAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of released generators")
	}
	a, _, _ := attackWithTrueKey(t, 403, 4)
	a.cfg.Workers = 1
	var sum float64
	body := func(i int, rng *rand.Rand) { sum += rng.Float64() }
	if allocs := testing.AllocsPerRun(100, func() { a.parallelFor(8, 5, body) }); allocs != 0 {
		t.Errorf("a one-worker parallelFor call allocates %.0f times", allocs)
	}
}

// TestDecryptParallelWorkersMatchSerial: the worker count (§4.1) is an
// implementation detail, not a semantics change. The recovered key and
// every oracle count, rounds included, are identical at any width, on a
// negation lock and on a bias-shift lock whose validations send a second
// batch of alternative kink locations.
func TestDecryptParallelWorkersMatchSerial(t *testing.T) {
	locks := []struct {
		name string
		seed int64
		lcfg hpnn.Config
	}{
		{"negation", 403, hpnn.Config{Scheme: hpnn.Negation, KeyBits: 8}},
		{"bias-shift", 102, hpnn.Config{Scheme: hpnn.BiasShift, Alpha: 0.8, KeyBits: 8}},
	}
	for _, l := range locks {
		rng := rand.New(rand.NewSource(l.seed))
		net := models.TinyMLP(rng)
		l.lcfg.Rng = rng
		white, spec, orc, key := lockAndOracle(net, l.lcfg)
		var serial *Result
		for _, workers := range []int{1, 2, 8} {
			cfg := DefaultConfig()
			cfg.Workers = workers
			cfg.Seed = 404
			res, err := Run(white, spec, orc, cfg)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", l.name, workers, err)
			}
			if res.Key.Fidelity(key) != 1 {
				t.Fatalf("%s workers=%d: fidelity %.3f", l.name, workers, res.Key.Fidelity(key))
			}
			if serial == nil {
				serial = res
				continue
			}
			if !reflect.DeepEqual(res.Key, serial.Key) || res.Queries != serial.Queries ||
				res.Rounds != serial.Rounds || res.Degraded != serial.Degraded ||
				!reflect.DeepEqual(res.QueriesByProc, serial.QueriesByProc) ||
				!reflect.DeepEqual(res.RoundsByProc, serial.RoundsByProc) {
				t.Fatalf("%s workers=%d differs from one worker:\n key %v queries %d rounds %d degraded %d\n  %v %v\n"+
					"one worker:\n key %v queries %d rounds %d degraded %d\n  %v %v",
					l.name, workers, res.Key, res.Queries, res.Rounds, res.Degraded, res.QueriesByProc, res.RoundsByProc,
					serial.Key, serial.Queries, serial.Rounds, serial.Degraded, serial.QueriesByProc, serial.RoundsByProc)
			}
		}
	}
}

func TestCurrentKeyTracksSetBit(t *testing.T) {
	a, _, _ := attackWithTrueKey(t, 405, 6)
	a.setBit(2, true, 0.5, OriginLearning)
	a.setBit(4, true, 0.9, OriginCorrection)
	key := a.CurrentKey()
	if !key[2] || !key[4] || key[0] {
		t.Fatalf("CurrentKey = %v", key)
	}
	if !a.decided[2] || a.confidence[2] != 0.5 || a.origins[4] != OriginCorrection {
		t.Fatal("bit state not recorded")
	}
}

func TestLowConfidenceBits(t *testing.T) {
	a, _, _ := attackWithTrueKey(t, 406, 6)
	a.setBit(0, false, 0.99, OriginAlgebraic)
	a.setBit(1, false, 0.2, OriginLearning)
	a.setBit(2, false, 0.1, OriginLearning)
	got := lowConfidenceBits(a, []int{0, 1, 2})
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("lowConfidenceBits = %v", got)
	}
}

func TestRelearnBySiteFixesBits(t *testing.T) {
	// Corrupt two learned bits on different sites and confirm relearning
	// against the oracle restores them.
	a, key, bySite := attackWithTrueKey(t, 407, 8)
	for si := range key {
		a.setBit(si, key[si], 1, OriginAlgebraic)
	}
	// Corrupt one bit per site, pretending they were learned badly.
	b0, b1 := bySite[0][0], bySite[1][0]
	a.setBit(b0, !key[b0], 0.1, OriginLearning)
	a.setBit(b1, !key[b1], 0.1, OriginLearning)
	rng := rand.New(rand.NewSource(408))
	if err := a.relearnBySite([]int{b0, b1}, rng); err != nil {
		t.Fatalf("relearnBySite: %v", err)
	}
	cur := a.CurrentKey()
	if cur[b0] != key[b0] || cur[b1] != key[b1] {
		t.Fatalf("relearn failed: %v vs %v", cur, key)
	}
}

func TestOrderedSites(t *testing.T) {
	a, _, _ := attackWithTrueKey(t, 409, 8)
	sites := a.orderedSites()
	if len(sites) != 2 || sites[0] != 0 || sites[1] != 1 {
		t.Fatalf("orderedSites = %v", sites)
	}
}
