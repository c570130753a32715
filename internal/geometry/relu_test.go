package geometry

import (
	"math/rand"
	"testing"

	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

func TestProductMatrixAtReLUMatchesJacobian(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	f1, f2 := nn.NewFlip(6), nn.NewFlip(4)
	f1.SetBit(1, true)
	net := nn.NewNetwork(
		nn.NewDense(3, 6).InitHe(rng), f1, nn.NewReLU(6),
		nn.NewDense(6, 4).InitHe(rng), f2, nn.NewReLU(4),
		nn.NewDense(4, 2).InitHe(rng),
	)
	x := randIn(rng, 3)
	tr := net.ForwardTrace(x)
	for site := 0; site < 2; site++ {
		m, err := ProductMatrixAtReLU(net, tr, site)
		if err != nil {
			t.Fatal(err)
		}
		u, j := net.ReluInJacobian(x, site)
		defer tensor.PutMatrix(j)
		if !tensor.Equal(m.A, j, 1e-9) {
			t.Fatalf("relu site %d product matrix != Jacobian", site)
		}
		got := m.Apply(x)
		if tensor.NormInf(tensor.VecSub(got, u)) > 1e-9 {
			t.Fatalf("relu site %d affine map value mismatch", site)
		}
	}
}

func TestProductMatrixAtReLUReflectsFlipSigns(t *testing.T) {
	// The ReLU-input map must include the flip's sign (unlike the
	// pre-activation map, which stops before it).
	rng := rand.New(rand.NewSource(62))
	f := nn.NewFlip(4)
	net := nn.NewNetwork(nn.NewDense(3, 4).InitHe(rng), f, nn.NewReLU(4), nn.NewDense(4, 2).InitHe(rng))
	x := randIn(rng, 3)
	tr := net.ForwardTrace(x)
	m0, err := ProductMatrixAtReLU(net, tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.SetBit(2, true)
	tr2 := net.ForwardTrace(x)
	m1, err := ProductMatrixAtReLU(net, tr2, 0)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		if m1.A.At(2, c) != -m0.A.At(2, c) {
			t.Fatal("flip sign not reflected in the ReLU-input map")
		}
		if m1.A.At(0, c) != m0.A.At(0, c) {
			t.Fatal("unflipped row changed")
		}
	}
}
