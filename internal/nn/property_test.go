package nn

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dnnlock/internal/tensor"
)

// forward runs l's single-example forward into a fresh slice.
func forward(l Layer, x []float64) []float64 {
	y := make([]float64, l.OutSize())
	l.Forward(y, x, nil)
	return y
}

// affineCheck verifies the affine superposition property that the attack's
// algebra rests on: f(x+y) − f(0) == (f(x) − f(0)) + (f(y) − f(0)).
func affineCheck(l Layer, x, y []float64, tol float64) bool {
	zero := make([]float64, l.InSize())
	f0 := forward(l, zero)
	fx := forward(l, x)
	fy := forward(l, y)
	fxy := forward(l, tensor.VecAdd(x, y))
	for i := range f0 {
		lhs := fxy[i] - f0[i]
		rhs := (fx[i] - f0[i]) + (fy[i] - f0[i])
		if d := lhs - rhs; d > tol || d < -tol {
			return false
		}
	}
	return true
}

func randVecN(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestAffineLayersProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		layers := []Layer{
			NewDense(6, 4).InitHe(rng),
			NewConv2D(1, 6, 6, 2, 3, 1, 1).InitHe(rng),
			NewAvgPool2D(2, 4, 4, 2, 2),
			NewGlobalAvgPool(2, 3, 3),
			NewMeanTokens(3, 4),
			NewPatchEmbed(1, 4, 4, 2, 3).InitXavier(rng),
			NewTokenDense(2, 3, 5).InitHe(rng),
			NewFlatten(7),
		}
		for _, l := range layers {
			x := randVecN(rng, l.InSize())
			y := randVecN(rng, l.InSize())
			if !affineCheck(l, x, y, 1e-9) {
				t.Logf("layer %s failed affine check", l.Name())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

func TestReLUPositiveHomogeneity(t *testing.T) {
	// φ(a·x) = a·φ(x) for a > 0 — why scaling keys leave hyperplanes in
	// place (§3.9 case a).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		r := NewReLU(8)
		x := randVecN(rng, 8)
		a := 0.1 + rng.Float64()*5
		ax := tensor.VecScale(a, x)
		lhs := forward(r, ax)
		rhs := tensor.VecScale(a, forward(r, x))
		return tensor.NormInf(tensor.VecSub(lhs, rhs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxPoolPositiveHomogeneity(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewMaxPool2D(1, 4, 4, 2, 2)
		x := randVecN(rng, p.InSize())
		a := 0.1 + rng.Float64()*3
		lhs := forward(p, tensor.VecScale(a, x))
		rhs := tensor.VecScale(a, forward(p, x))
		return tensor.NormInf(tensor.VecSub(lhs, rhs)) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestNegationFlipIsSignFlip(t *testing.T) {
	// Equation 1 of the paper: the flip negates exactly the protected
	// pre-activations and nothing else.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fl := NewFlip(6)
		protected := map[int]bool{}
		for j := 0; j < 6; j++ {
			if rng.Intn(2) == 1 {
				fl.SetBit(j, true)
				protected[j] = true
			}
		}
		x := randVecN(rng, 6)
		y := forward(fl, x)
		for j := range x {
			want := x[j]
			if protected[j] {
				want = -x[j]
			}
			if y[j] != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestResidualIsSumOfPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	body := []Layer{NewDense(5, 5).InitHe(rng)}
	short := []Layer{NewDense(5, 5).InitHe(rng)}
	res := NewResidual(body, short)
	x := randVecN(rng, 5)
	want := tensor.VecAdd(forward(body[0], x), forward(short[0], x))
	if tensor.NormInf(tensor.VecSub(forward(res, x), want)) > 1e-12 {
		t.Fatal("residual is not the sum of its paths")
	}
}
