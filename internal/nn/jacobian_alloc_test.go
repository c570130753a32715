package nn_test

import (
	"math/rand"
	"runtime"
	"testing"

	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

// raceEnabled is set under -race (race_test.go): the race detector makes
// sync.Pool drop a random share of Puts, so workspace-reuse allocation
// bounds cannot hold there.
var raceEnabled bool

// bytesPerRun returns the heap bytes one call of f allocates, averaged over
// runs calls after one warm-up call, on one P so the workspace pool is not
// split across processors.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestJacobianPairAllocBound pins the in-place Jacobian chain: one
// ReluInJacobian at the last ReLU site plus one PreActJacobian at flip site
// 0, both released, allocate less than one P×P tangent. What remains is
// the layers' value vectors; every tangent, the identity seed included,
// comes from and returns to the workspace pool. Kernels run serially here;
// the worker-pool fan-out allocates its own task closures.
func TestJacobianPairAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of released workspaces")
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	builds := []struct {
		name  string
		build func(*rand.Rand) *nn.Network
	}{
		{"lenet", models.TinyLeNet},
		{"resnet", models.TinyResNet},
		{"vtransformer", models.TinyVTransformer},
	}
	for _, b := range builds {
		rng := rand.New(rand.NewSource(1))
		net := b.build(rng)
		x := make([]float64, net.InSize())
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		last := len(net.ReLUs()) - 1
		pair := func() {
			_, j := net.ReluInJacobian(x, last)
			tensor.PutMatrix(j)
			_, j = net.PreActJacobian(x, 0)
			tensor.PutMatrix(j)
		}
		p := uint64(net.InSize())
		if got, tangent := bytesPerRun(100, pair), 8*p*p; got >= tangent {
			t.Errorf("%s: a Jacobian pair allocates %d B, not below one %d×%d tangent (%d B)", b.name, got, p, p, tangent)
		}
	}
}

// TestForwardAllocBound pins the pooled single-example walk: with the
// kernels serial, a steady-state PostAt or ReluInAt probe at any site
// allocates nothing, and ForwardBatch and PrefixForward allocate as often
// for 4 rows as for 16, because every per-row intermediate comes from and
// returns to the workspace pool.
func TestForwardAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop a share of released workspaces")
	}
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	builds := []struct {
		name  string
		build func(*rand.Rand) *nn.Network
	}{
		{"mlp", models.TinyMLP},
		{"lenet", models.TinyLeNet},
		{"resnet", models.TinyResNet},
		{"vtransformer", models.TinyVTransformer},
	}
	const runs = 100
	for _, b := range builds {
		rng := rand.New(rand.NewSource(1))
		net := b.build(rng)
		batch := func(rows int) *tensor.Matrix {
			x := tensor.New(rows, net.InSize())
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			return x
		}
		x := batch(1).Row(0)
		for s, f := range net.Flips() {
			if a := testing.AllocsPerRun(runs, func() { net.PostAt(x, s, f.N-1) }); a != 0 {
				t.Errorf("%s: PostAt at flip site %d allocates %.0f times", b.name, s, a)
			}
		}
		for r, rl := range net.ReLUs() {
			if a := testing.AllocsPerRun(runs, func() { net.ReluInAt(x, r, rl.N-1) }); a != 0 {
				t.Errorf("%s: ReluInAt at ReLU site %d allocates %.0f times", b.name, r, a)
			}
		}
		sl := net.Split(net.NumFlipSites() - 1)
		prefix := func(x *tensor.Matrix) {
			h := sl.PrefixForward(x)
			if h != x {
				defer tensor.PutMatrix(h)
			}
		}
		x4, x16 := batch(4), batch(16)
		for _, pass := range []struct {
			name string
			run  func(*tensor.Matrix)
		}{
			{"ForwardBatch", func(x *tensor.Matrix) { tensor.PutMatrix(net.ForwardBatch(x)) }},
			{"PrefixForward", prefix},
		} {
			a4 := testing.AllocsPerRun(runs, func() { pass.run(x4) })
			a16 := testing.AllocsPerRun(runs, func() { pass.run(x16) })
			if a4 != a16 {
				t.Errorf("%s: %s allocates %.0f times for 4 rows but %.0f for 16", b.name, pass.name, a4, a16)
			}
		}
	}
}
