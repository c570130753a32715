package core

import (
	"math/rand"
	"sort"
	"testing"

	"dnnlock/internal/dataset"
	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/oracle"
	"dnnlock/internal/tensor"
)

// fuzzedEquivNets returns locked-model builders across the evaluation's
// architecture families, with rng-fuzzed widths for the MLPs.
func fuzzedEquivNets(rng *rand.Rand) []func(*rand.Rand) *nn.Network {
	builders := []func(*rand.Rand) *nn.Network{
		models.TinyLeNet,
		models.TinyResNet,
		models.TinyVTransformer,
	}
	for i := 0; i < 3; i++ {
		h1, h2 := 8+rng.Intn(8), 5+rng.Intn(4)
		in, out := 5+rng.Intn(6), 3+rng.Intn(2)
		builders = append(builders, func(r *rand.Rand) *nn.Network {
			return models.MLP(models.MLPConfig{In: in, Hidden: []int{h1, h2}, Out: out}, r)
		})
	}
	return builders
}

// fitOutcome captures everything fitSoft decides: per-epoch losses, final
// soft coefficients, and the hardened key bits.
type fitOutcome struct {
	losses []float64
	coeffs [][]float64
	key    hpnn.Key
}

// runFit mimics one learningAttack invocation at `site` (softening that
// site's bits plus all later bits as nuisance coefficients), sliced at the
// earliest softened site as fitSoft slices or, with unsliced, on the
// network's full slice, and returns the complete outcome.
func runFit(white *nn.Network, spec *hpnn.LockSpec, orc *oracle.Oracle, site int,
	cfg Config, unsliced bool) fitOutcome {

	trainNet := white.CloneForKeys()
	bySite := map[int][]int{}
	for i, pn := range spec.Neurons {
		if pn.Site >= site {
			bySite[pn.Site] = append(bySite[pn.Site], i)
		}
	}
	sites := soften(trainNet, spec, bySite)
	rng := rand.New(rand.NewSource(77))
	x := dataset.UniformInputs(cfg.LearnQueries, trainNet.InSize(), cfg.InputLim, rng)
	y, err := orc.QueryBatch(x)
	if err != nil {
		panic(err) // clean oracle never errors
	}
	defer tensor.PutMatrix(x, y)
	var out fitOutcome
	record := func(epoch int, loss float64) bool {
		out.losses = append(out.losses, loss)
		return true
	}
	if unsliced {
		fitSlice(trainNet.FullSlice(), sites, x, y, cfg, rng, orc.Softmax(), record)
	} else {
		fitSoft(trainNet, sites, x, y, cfg, rng, orc.Softmax(), record)
	}
	// Record coefficients in site-ID order to make runs comparable.
	sort.Slice(sites, func(i, j int) bool { return sites[i].flip.SiteID < sites[j].flip.SiteID })
	key := make(hpnn.Key, spec.NumBits())
	for _, s := range sites {
		out.coeffs = append(out.coeffs, s.flip.SoftCoeffs())
		s.flip.Harden()
		for _, si := range s.specIdxs {
			key[si] = s.flip.Bit(spec.Neurons[si].Index)
		}
	}
	out.key = key
	return out
}

// TestFitSoftSliceEquivalence is the acceptance property of the
// frozen-prefix cache: for fuzzed architectures of every family, for every
// slice point the attack can reach (each flip site as the earliest softened
// site), and for both logit and softmax oracles, the sliced fit must
// reproduce the unsliced fit exactly — same per-epoch losses, same final
// coefficients, same recovered key bits. Exact float comparison, no
// tolerance.
func TestFitSoftSliceEquivalence(t *testing.T) {
	seedRng := rand.New(rand.NewSource(701))
	cfg := DefaultConfig()
	cfg.LearnQueries = 48
	cfg.LearnEpochs = 6
	cfg.LearnBatch = 16
	cfg.PlateauEpochs = 3
	for bi, build := range fuzzedEquivNets(seedRng) {
		for _, softmaxOracle := range []bool{false, true} {
			rng := rand.New(rand.NewSource(int64(800 + bi)))
			net := build(rng)
			lm, key := hpnn.Lock(net, hpnn.Config{Scheme: hpnn.Negation, KeyBits: 6, Rng: rng})
			var orc *oracle.Oracle
			if softmaxOracle {
				orc = oracle.NewSoftmax(lm, key)
			} else {
				orc = oracle.New(lm, key)
			}
			white := lm.WhiteBox()
			numSites := white.NumFlipSites()
			for site := 0; site < numSites; site++ {
				has := false
				for _, pn := range lm.Spec.Neurons {
					if pn.Site >= site {
						has = true
						break
					}
				}
				if !has {
					continue
				}
				sliced := runFit(white, &lm.Spec, orc, site, cfg, false)
				full := runFit(white, &lm.Spec, orc, site, cfg, true)
				if len(sliced.losses) != len(full.losses) {
					t.Fatalf("net %d softmax=%v site %d: epoch count %d vs %d",
						bi, softmaxOracle, site, len(sliced.losses), len(full.losses))
				}
				for e := range sliced.losses {
					if sliced.losses[e] != full.losses[e] {
						t.Fatalf("net %d softmax=%v site %d: epoch %d loss %v vs %v",
							bi, softmaxOracle, site, e, sliced.losses[e], full.losses[e])
					}
				}
				if len(sliced.coeffs) != len(full.coeffs) {
					t.Fatalf("net %d site %d: site count mismatch", bi, site)
				}
				for si := range sliced.coeffs {
					for ci := range sliced.coeffs[si] {
						if sliced.coeffs[si][ci] != full.coeffs[si][ci] {
							t.Fatalf("net %d softmax=%v site %d: coeff %d/%d %v vs %v",
								bi, softmaxOracle, site, si, ci,
								sliced.coeffs[si][ci], full.coeffs[si][ci])
						}
					}
				}
				for i := range sliced.key {
					if sliced.key[i] != full.key[i] {
						t.Fatalf("net %d softmax=%v site %d: key bit %d differs",
							bi, softmaxOracle, site, i)
					}
				}
			}
		}
	}
}
