package core

import (
	"math/rand"
	"testing"

	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

// TestFitStepZeroAlloc pins the exact fit's steady state: once the first
// full minibatch has sized the step's workspaces and the clone's layer
// buffers, a full and a partial minibatch — gather, suffix forward, loss,
// suffix backward, Adam step — allocate nothing, with either loss. Kernels
// run serially here; the worker-pool fan-out allocates its own task
// closures.
func TestFitStepZeroAlloc(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	cfg := DefaultConfig()
	builds := []struct {
		name  string
		build func(*rand.Rand) *nn.Network
	}{
		{"lenet", models.TinyLeNet},
		{"resnet", models.TinyResNet},
		{"vtransformer", models.TinyVTransformer},
	}
	for _, b := range builds {
		rng := rand.New(rand.NewSource(11))
		net := b.build(rng).CloneForKeys()
		var sites []softSite
		for _, f := range net.Flips() {
			sites = append(sites, softSite{flip: f, param: f.Soften([]int{0, 1}, true)})
		}
		sl := net.Split(0)
		n := cfg.LearnBatch + cfg.LearnBatch/2
		x, y := tensor.New(n, net.InSize()), tensor.New(n, net.OutSize())
		for _, m := range []*tensor.Matrix{x, y} {
			for i := range m.Data {
				m.Data[i] = rng.NormFloat64()
			}
		}
		h := sl.PrefixForward(x)
		if h != x {
			defer tensor.PutMatrix(h)
		}
		perm := rng.Perm(n)
		for _, softmax := range []bool{false, true} {
			st := newFitStep(sl, sites, h, y, cfg, softmax)
			minibatches := func() {
				st.run(perm[:cfg.LearnBatch])
				st.run(perm[cfg.LearnBatch:])
			}
			minibatches()
			allocs := testing.AllocsPerRun(10, minibatches)
			st.release()
			if allocs > 0 {
				t.Errorf("%s softmax=%v: steady-state minibatches allocate %.1f times", b.name, softmax, allocs)
			}
		}
	}
}
