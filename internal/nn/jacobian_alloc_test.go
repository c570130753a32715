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
