package nn_test

import (
	"math"
	"math/rand"
	"testing"

	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

// engineNets builds one network per architecture family the engine must
// shadow: conv/maxpool (LeNet), residual conv/global-avg-pool (ResNet),
// patch-embed/attention/token-dense/mean-tokens (VTransformer), and a
// plain dense MLP.
func engineNets(rng *rand.Rand) map[string]*nn.Network {
	return map[string]*nn.Network{
		"lenet":        models.TinyLeNet(rng),
		"resnet":       models.TinyResNet(rng),
		"vtransformer": models.TinyVTransformer(rng),
		"mlp":          models.MLP(models.MLPConfig{In: 7, Hidden: []int{10, 6}, Out: 4}, rng),
	}
}

// TestEngine32MatchesFloat64 drives the float32 shadow engine and the
// exact float64 suffix over the same softened network and demands
// agreement within float32 rounding: forward logits relatively close, and
// the soft flip coefficient gradient — the only gradient the learning
// attack keeps — close too. This is the layer-level counterpart of core's
// end-to-end precision parity property.
func TestEngine32MatchesFloat64(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for name, net := range engineNets(rng) {
		for _, gated := range []bool{false, true} {
			flips := net.Flips()
			if len(flips) == 0 {
				t.Fatalf("%s: no flip layers", name)
			}
			flip := flips[0]
			p := flip.Soften([]int{0, 1}, gated)
			for i := range p.W.Data {
				p.W.Data[i] = 0.3*rng.NormFloat64() + 0.1
			}

			sl := net.FullSlice()
			batch := 16
			x := tensor.New(batch, net.InSize())
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			dy := tensor.New(batch, net.OutSize())
			for i := range dy.Data {
				dy.Data[i] = rng.NormFloat64()
			}

			// Exact float64 reference.
			y64 := sl.TrainForward(x)
			ref := y64.Clone()
			sl.Backward(dy)
			refG := append([]float64(nil), p.G.Data...)
			net.ZeroGrad()

			// Float32 shadow.
			ar := tensor.GetArena32()
			eng, ok := nn.NewEngine32(sl, ar)
			if !ok {
				t.Fatalf("%s: no float32 shadow", name)
			}
			x32 := ar.Mat(x.Rows, x.Cols)
			tensor.ConvertInto(x32, x)
			y32 := eng.Forward(x32)
			scale := ref.MaxAbs() + 1
			for i, v := range ref.Data {
				if d := math.Abs(float64(y32.Data[i]) - v); d > 1e-4*scale {
					t.Fatalf("%s gated=%v: forward[%d] %v vs %v (Δ %.2g)",
						name, gated, i, y32.Data[i], v, d)
				}
			}
			dy32 := ar.Mat(dy.Rows, dy.Cols)
			tensor.ConvertInto(dy32, dy)
			eng.Backward(dy32)
			gscale := 1.0
			for _, g := range refG {
				if a := math.Abs(g); a > gscale {
					gscale = a
				}
			}
			for i, g := range refG {
				if d := math.Abs(p.G.Data[i] - g); d > 1e-3*gscale {
					t.Fatalf("%s gated=%v: soft grad[%d] %v vs %v (Δ %.2g)",
						name, gated, i, p.G.Data[i], g, d)
				}
			}
			net.ZeroGrad()
			tensor.PutArena32(ar)
		}
	}
}

// TestEngine32ZeroAllocEpoch checks the engine's steady state: after the
// first (largest) batch sized the internal buffers, repeated forward and
// backward passes allocate nothing.
func TestEngine32ZeroAllocEpoch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	net := models.TinyLeNet(rng)
	net.Flips()[0].Soften([]int{0, 1}, false)
	sl := net.FullSlice()
	ar := tensor.GetArena32()
	defer tensor.PutArena32(ar)
	eng, ok := nn.NewEngine32(sl, ar)
	if !ok {
		t.Fatal("no float32 shadow for LeNet")
	}
	x := ar.Mat(8, net.InSize())
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	dy := ar.Mat(8, net.OutSize())
	for i := range dy.Data {
		dy.Data[i] = float32(rng.NormFloat64())
	}
	// Warm-up carves every lazily-sized buffer.
	_ = eng.Forward(x)
	eng.Backward(dy)
	allocs := testing.AllocsPerRun(10, func() {
		_ = eng.Forward(x)
		eng.Backward(dy)
	})
	if allocs > 0 {
		t.Fatalf("steady-state epoch allocates %.1f times per pass", allocs)
	}
}
