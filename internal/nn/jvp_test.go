package nn

import (
	"math"
	"math/rand"
	"testing"

	"dnnlock/internal/tensor"
)

// fdJacobian approximates dF/dx at x by central differences.
func fdJacobian(f func([]float64) []float64, x []float64, h float64) *tensor.Matrix {
	y0 := f(x)
	j := tensor.New(len(y0), len(x))
	xp := tensor.VecClone(x)
	for c := range x {
		xp[c] = x[c] + h
		yp := f(xp)
		xp[c] = x[c] - h
		ym := f(xp)
		xp[c] = x[c]
		for r := range y0 {
			j.Set(r, c, (yp[r]-ym[r])/(2*h))
		}
	}
	return j
}

// checkOutputJVP compares the analytic output Jacobian with finite
// differences at a generic point.
func checkOutputJVP(t *testing.T, net *Network, x []float64, tol float64) {
	t.Helper()
	y, j := net.OutputJacobian(x)
	defer tensor.PutMatrix(j)
	yRef := net.Forward(x)
	for i := range y {
		if math.Abs(y[i]-yRef[i]) > 1e-10 {
			t.Fatalf("JVP value path differs from Forward at %d: %v vs %v", i, y[i], yRef[i])
		}
	}
	jfd := fdJacobian(net.Forward, x, 1e-5)
	if !tensor.Equal(j, jfd, tol) {
		t.Fatalf("analytic Jacobian differs from finite differences:\n%v\nvs\n%v", j, jfd)
	}
}

func TestJVPDenseReLU(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	net := NewNetwork(NewDense(6, 5).InitHe(rng), NewReLU(5), NewDense(5, 3).InitHe(rng))
	checkOutputJVP(t, net, randBatch(rng, 1, 6).Row(0), 1e-5)
}

func TestJVPConvPool(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	conv := NewConv2D(1, 8, 8, 3, 3, 1, 0).InitHe(rng)
	pool := NewMaxPool2D(3, conv.OutH, conv.OutW, 2, 2)
	net := NewNetwork(conv, NewReLU(conv.OutSize()), pool, NewDense(pool.OutSize(), 2).InitHe(rng))
	checkOutputJVP(t, net, randBatch(rng, 1, conv.InSize()).Row(0), 1e-5)
}

func TestJVPAvgPool(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	conv := NewConv2D(1, 8, 8, 2, 3, 1, 1).InitHe(rng)
	pool := NewAvgPool2D(2, 8, 8, 2, 2)
	net := NewNetwork(conv, NewReLU(conv.OutSize()), pool, NewDense(pool.OutSize(), 3).InitHe(rng))
	checkOutputJVP(t, net, randBatch(rng, 1, conv.InSize()).Row(0), 1e-5)
}

func TestJVPResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	body := []Layer{NewDense(5, 5).InitHe(rng), NewReLU(5), NewDense(5, 5).InitHe(rng)}
	net := NewNetwork(NewResidual(body, nil), NewReLU(5), NewDense(5, 2).InitHe(rng))
	checkOutputJVP(t, net, randBatch(rng, 1, 5).Row(0), 1e-5)
}

func TestJVPAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	attn := NewAttentionReLU(3, 4, 3).InitXavier(rng)
	net := NewNetwork(attn, NewDense(attn.OutSize(), 2).InitHe(rng))
	checkOutputJVP(t, net, randBatch(rng, 1, attn.InSize()).Row(0), 1e-4)
}

func TestJVPPatchEmbedTransformer(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	pe := NewPatchEmbed(1, 4, 4, 2, 5).InitXavier(rng)
	attn := NewResidual([]Layer{NewAttentionReLU(pe.T, 5, 4).InitXavier(rng)}, nil)
	net := NewNetwork(pe, attn, NewMeanTokens(pe.T, 5), NewDense(5, 2).InitHe(rng))
	checkOutputJVP(t, net, randBatch(rng, 1, pe.InSize()).Row(0), 1e-4)
}

func TestJVPFlipAndPreActJacobian(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	f1 := NewFlip(5)
	f1.SetBit(2, true)
	f2 := NewFlip(4)
	f2.SetBit(0, true)
	d1 := NewDense(6, 5).InitHe(rng)
	d2 := NewDense(5, 4).InitHe(rng)
	net := NewNetwork(d1, f1, NewReLU(5), d2, f2, NewReLU(4), NewDense(4, 3).InitHe(rng))
	x := randBatch(rng, 1, 6).Row(0)

	// Site 0 pre-activation Jacobian should equal d1's weights exactly.
	u, j := net.PreActJacobian(x, 0)
	defer tensor.PutMatrix(j)
	if !tensor.Equal(j, d1.W.W, 1e-12) {
		t.Fatal("site-0 Jacobian should be the first weight matrix")
	}
	want := forward(d1, x)
	for i := range u {
		if math.Abs(u[i]-want[i]) > 1e-12 {
			t.Fatalf("site-0 pre-activation mismatch at %d", i)
		}
	}

	// Site 1 Jacobian against finite differences of the unsigned pre-act.
	u1, j1 := net.PreActJacobian(x, 1)
	defer tensor.PutMatrix(j1)
	fd := fdJacobian(func(xx []float64) []float64 {
		return net.ForwardTrace(xx).Pre[1]
	}, x, 1e-6)
	if !tensor.Equal(j1, fd, 1e-4) {
		t.Fatalf("site-1 Jacobian mismatch:\n%v\nvs\n%v", j1, fd)
	}
	tr := net.ForwardTrace(x)
	for i := range u1 {
		if math.Abs(u1[i]-tr.Pre[1][i]) > 1e-12 {
			t.Fatal("site-1 pre-activation mismatch")
		}
	}
}
