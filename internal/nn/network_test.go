package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"dnnlock/internal/tensor"
)

func smallLockedMLP(rng *rand.Rand) (*Network, *Flip, *Flip) {
	f1, f2 := NewFlip(6), NewFlip(4)
	net := NewNetwork(
		NewDense(5, 6).InitHe(rng), f1, NewReLU(6),
		NewDense(6, 4).InitHe(rng), f2, NewReLU(4),
		NewDense(4, 3).InitHe(rng),
	)
	return net, f1, f2
}

func TestNetworkSiteRegistration(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	net, f1, f2 := smallLockedMLP(rng)
	if net.NumFlipSites() != 2 {
		t.Fatalf("NumFlipSites = %d", net.NumFlipSites())
	}
	if f1.SiteID != 0 || f2.SiteID != 1 {
		t.Fatalf("site IDs = %d, %d", f1.SiteID, f2.SiteID)
	}
	if len(net.ReLUs()) != 2 || net.ReLUs()[0].SiteID != 0 || net.ReLUs()[1].SiteID != 1 {
		t.Fatal("ReLU site registration failed")
	}
}

func TestNetworkSiteRegistrationInsideResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	f := NewFlip(5)
	body := []Layer{NewDense(5, 5).InitHe(rng), f, NewReLU(5)}
	net := NewNetwork(NewResidual(body, nil), NewDense(5, 2).InitHe(rng))
	if net.NumFlipSites() != 1 || f.SiteID != 0 {
		t.Fatal("flip inside residual not registered")
	}
	x := randBatch(rng, 1, 5).Row(0)
	tr := net.ForwardTrace(x)
	if tr.Pre[0] == nil || tr.Patterns[0] == nil {
		t.Fatal("trace not recorded inside residual")
	}
}

func TestNetworkShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	rng := rand.New(rand.NewSource(33))
	NewNetwork(NewDense(4, 5).InitHe(rng), NewDense(6, 2).InitHe(rng))
}

func TestForwardTraceRecordsFlipSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	net, f1, _ := smallLockedMLP(rng)
	f1.SetBit(2, true)
	x := randBatch(rng, 1, 5).Row(0)
	tr := net.ForwardTrace(x)
	for i := range tr.Pre[0] {
		want := tr.Pre[0][i]
		if i == 2 {
			want = -want
		}
		if math.Abs(tr.Post[0][i]-want) > 1e-12 {
			t.Fatalf("flip semantics wrong at %d: pre=%v post=%v", i, tr.Pre[0][i], tr.Post[0][i])
		}
	}
	if tr.Out == nil || len(tr.Out) != 3 {
		t.Fatal("trace output missing")
	}
}

func TestFlipInvolutionProperty(t *testing.T) {
	// Applying the same key twice restores the original function.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		net, f1, f2 := smallLockedMLP(rng)
		x := randBatch(rng, 1, 5).Row(0)
		y0 := net.Forward(x)
		for j := 0; j < f1.N; j++ {
			f1.SetBit(j, rng.Intn(2) == 1)
		}
		for j := 0; j < f2.N; j++ {
			f2.SetBit(j, rng.Intn(2) == 1)
		}
		// Flip every set bit back.
		for j := 0; j < f1.N; j++ {
			if f1.Bit(j) {
				f1.SetBit(j, false)
			}
		}
		for j := 0; j < f2.N; j++ {
			if f2.Bit(j) {
				f2.SetBit(j, false)
			}
		}
		y1 := net.Forward(x)
		return tensor.NormInf(tensor.VecSub(y0, y1)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	net, f1, _ := smallLockedMLP(rng)
	f1.SetBit(1, true)
	xb := randBatch(rng, 4, 5)
	yb := net.ForwardBatch(xb)
	for r := 0; r < 4; r++ {
		y := net.Forward(xb.Row(r))
		for c := range y {
			if math.Abs(y[c]-yb.At(r, c)) > 1e-12 {
				t.Fatalf("batch/single mismatch at (%d,%d)", r, c)
			}
		}
	}
}

func TestTrainForwardMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	conv := NewConv2D(1, 6, 6, 2, 3, 1, 1).InitHe(rng)
	pool := NewMaxPool2D(2, 6, 6, 2, 2)
	f := NewFlip(conv.OutSize())
	f.SetBit(3, true)
	net := NewNetwork(conv, f, NewReLU(conv.OutSize()), pool, NewDense(pool.OutSize(), 3).InitHe(rng))
	xb := randBatch(rng, 3, conv.InSize())
	a := net.ForwardBatch(xb)
	b := net.TrainForward(xb)
	if !tensor.Equal(a, b, 1e-12) {
		t.Fatal("TrainForward differs from ForwardBatch")
	}
}

func TestCloneForKeysIsolatesFlips(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	net, f1, _ := smallLockedMLP(rng)
	clone := net.CloneForKeys()
	x := randBatch(rng, 1, 5).Row(0)
	y0 := net.Forward(x)

	// Mutating the clone's flips must not affect the original.
	clone.Flips()[0].SetBit(0, true)
	y1 := net.Forward(x)
	if tensor.NormInf(tensor.VecSub(y0, y1)) > 0 {
		t.Fatal("clone flip mutation leaked into original")
	}
	// But shared weights mean un-flipped clones agree exactly.
	clone.Flips()[0].SetBit(0, false)
	y2 := clone.Forward(x)
	if tensor.NormInf(tensor.VecSub(y0, y2)) > 0 {
		t.Fatal("clone with identical key differs from original")
	}
	// Flips inside residual bodies are also cloned.
	fr := NewFlip(5)
	res := NewResidual([]Layer{NewDense(5, 5).InitHe(rng), fr, NewReLU(5)}, nil)
	net2 := NewNetwork(res, NewDense(5, 2).InitHe(rng))
	c2 := net2.CloneForKeys()
	c2.Flips()[0].SetBit(1, true)
	if fr.Bit(1) {
		t.Fatal("residual flip mutation leaked")
	}
	_ = f1
}

func TestSoftFlipHardenMatchesSign(t *testing.T) {
	f := NewFlip(4)
	p := f.Soften([]int{1, 3}, true)
	p.W.Data[0] = 1.5  // σ > 0.5 ⇒ K' < 0 ⇒ bit 1
	p.W.Data[1] = -0.2 // σ < 0.5 ⇒ K' > 0 ⇒ bit 0
	conf := f.Harden()
	if !f.Bit(1) || f.Bit(3) {
		t.Fatalf("hardened bits wrong: %v %v", f.Bit(1), f.Bit(3))
	}
	if conf[0] < conf[1] {
		t.Fatal("confidence ordering wrong")
	}
	if f.Params() != nil {
		t.Fatal("params should be gone after Harden")
	}
}

func TestSoftFlipCoeffsAndIndices(t *testing.T) {
	f := NewFlip(3)
	p := f.Soften([]int{0, 2}, true)
	idx := f.SoftIndices()
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 2 {
		t.Fatalf("SoftIndices = %v", idx)
	}
	// w = 0 ⇒ σ = 0.5 ⇒ K' = 0.
	c := f.SoftCoeffs()
	if math.Abs(c[0]) > 1e-12 || math.Abs(c[1]) > 1e-12 {
		t.Fatalf("SoftCoeffs at init = %v", c)
	}
	// Gated relaxation at w=0 outputs |u|/2.
	x := []float64{1, 2, -3}
	y := forward(f, x)
	if math.Abs(y[0]-0.5) > 1e-12 || y[1] != 2 || math.Abs(y[2]-1.5) > 1e-12 {
		t.Fatalf("soft forward = %v", y)
	}
	// Extremes recover the two hard branches.
	p.W.Data[0] = 50 // s≈1: ReLU(−u)
	p.W.Data[1] = -50
	y = forward(f, x)
	if math.Abs(y[0]-0) > 1e-9 || math.Abs(y[2]-0) > 1e-9 {
		t.Fatalf("extreme soft forward = %v", y)
	}
	y = forward(f, []float64{-1, 0, 3})
	if math.Abs(y[0]-1) > 1e-9 || math.Abs(y[2]-3) > 1e-9 {
		t.Fatalf("extreme soft forward = %v", y)
	}
}

func TestSoftFlipUngatedLinear(t *testing.T) {
	f := NewFlip(2)
	p := f.Soften([]int{0}, false)
	p.W.Data[0] = 50 // s≈1 ⇒ K'≈−1 ⇒ y ≈ −u
	y := forward(f, []float64{2, 5})
	if math.Abs(y[0]+2) > 1e-9 || y[1] != 5 {
		t.Fatalf("ungated soft forward = %v", y)
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	net := NewNetwork(NewDense(3, 4).InitHe(rng), NewReLU(4), NewDense(4, 2).InitHe(rng))
	want := 3*4 + 4 + 4*2 + 2
	if got := net.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}

func TestZeroGrad(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	net := NewNetwork(NewDense(3, 2).InitHe(rng))
	xb := randBatch(rng, 2, 3)
	net.TrainForward(xb)
	net.TrainBackward(randBatch(rng, 2, 2))
	net.ZeroGrad()
	for _, p := range net.Params() {
		for _, g := range p.G.Data {
			if g != 0 {
				t.Fatal("gradient not cleared")
			}
		}
	}
}
