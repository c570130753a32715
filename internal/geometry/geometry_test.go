package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

func lockedMLP(rng *rand.Rand, flipBits []int) *nn.Network {
	f1, f2 := nn.NewFlip(7), nn.NewFlip(5)
	net := nn.NewNetwork(
		nn.NewDense(4, 7).InitHe(rng), f1, nn.NewReLU(7),
		nn.NewDense(7, 5).InitHe(rng), f2, nn.NewReLU(5),
		nn.NewDense(5, 3).InitHe(rng),
	)
	for _, b := range flipBits {
		if b < 7 {
			f1.SetBit(b, true)
		} else {
			f2.SetBit(b-7, true)
		}
	}
	return net
}

func randIn(rng *rand.Rand, n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func TestProductMatrixMatchesJVP(t *testing.T) {
	// Property: the Formulas 2–3 product matrix equals the exact Jacobian
	// at the same point, for both flip sites and arbitrary keys.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := lockedMLP(rng, []int{1, 3, 9})
		x := randIn(rng, 4)
		tr := net.ForwardTrace(x)
		for site := 0; site < 2; site++ {
			m, err := ProductMatrix(net, tr, site)
			if err != nil {
				return false
			}
			u, j := net.PreActJacobian(x, site)
			same := tensor.Equal(m.A, j, 1e-9)
			tensor.PutMatrix(j)
			if !same {
				return false
			}
			// And the affine map must reproduce the pre-activation value.
			got := m.Apply(x)
			if tensor.NormInf(tensor.VecSub(got, u)) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRegionAffineMapReproducesOutput(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net := lockedMLP(rng, []int{0, 8})
		x := randIn(rng, 4)
		tr := net.ForwardTrace(x)
		m, err := RegionAffineMap(net, tr)
		if err != nil {
			return false
		}
		// Exact at the trace point.
		if tensor.NormInf(tensor.VecSub(m.Apply(x), tr.Out)) > 1e-9 {
			return false
		}
		// Exact at a nearby point in the same region.
		eps := 1e-6
		x2 := tensor.VecClone(x)
		x2[0] += eps
		tr2 := net.ForwardTrace(x2)
		if !PatternsEqual(tr.Patterns, tr2.Patterns) {
			return true // crossed a hyperplane; nothing to assert
		}
		return tensor.NormInf(tensor.VecSub(m.Apply(x2), tr2.Out)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestProductMatrixRejectsConvNets(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	conv := nn.NewConv2D(1, 6, 6, 2, 3, 1, 0).InitHe(rng)
	net := nn.NewNetwork(conv, nn.NewFlip(conv.OutSize()), nn.NewReLU(conv.OutSize()),
		nn.NewDense(conv.OutSize(), 2).InitHe(rng))
	tr := net.ForwardTrace(randIn(rng, conv.InSize()))
	if _, err := ProductMatrix(net, tr, 0); err != ErrNotSequentialPWL {
		t.Fatalf("err = %v, want ErrNotSequentialPWL", err)
	}
	if _, err := RegionAffineMap(net, tr); err == nil {
		t.Fatal("RegionAffineMap should reject conv nets")
	}
}

func TestPatternsEqualAndKey(t *testing.T) {
	a := [][]bool{{true, false}, {true}}
	b := [][]bool{{true, false}, {true}}
	c := [][]bool{{true, true}, {true}}
	if !PatternsEqual(a, b) || PatternsEqual(a, c) {
		t.Fatal("PatternsEqual broken")
	}
	if PatternKey(a) == PatternKey(c) {
		t.Fatal("PatternKey collision")
	}
	if PatternKey(a) != PatternKey(b) {
		t.Fatal("PatternKey not deterministic")
	}
	if PatternsEqual(a, [][]bool{{true, false}}) {
		t.Fatal("length mismatch should be unequal")
	}
	if PatternsEqual([][]bool{{true}}, [][]bool{{true, false}}) {
		t.Fatal("inner length mismatch should be unequal")
	}
}

func TestCountLinearRegions2D(t *testing.T) {
	// The 2-layer toy network of Figure 2 splits the plane into several
	// linear regions: more than 1 and at most the grid count.
	rng := rand.New(rand.NewSource(4))
	net := nn.NewNetwork(
		nn.NewDense(2, 3).InitHe(rng), nn.NewReLU(3),
		nn.NewDense(3, 3).InitHe(rng), nn.NewReLU(3),
		nn.NewDense(3, 1).InitHe(rng),
	)
	n := CountLinearRegions2D(net, 40, 3)
	if n < 2 {
		t.Fatalf("expected multiple linear regions, got %d", n)
	}
	if n > 40*40 {
		t.Fatal("impossible region count")
	}
}

func TestHyperplaneWitness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	net := lockedMLP(rng, nil)
	x := randIn(rng, 4)
	tr := net.ForwardTrace(x)
	u := math.Abs(tr.Pre[0][2])
	if HyperplaneWitness(net, x, 0, 2, u/2) {
		t.Fatal("witness accepted far point")
	}
	if !HyperplaneWitness(net, x, 0, 2, u*2+1) {
		t.Fatal("witness rejected close tolerance")
	}
}
