package nn

import (
	"math"
	"math/rand"
	"testing"

	"dnnlock/internal/tensor"
)

func TestSiteLayoutSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	net := NewNetwork(
		NewDense(4, 5).InitHe(rng), NewFlip(5), NewReLU(5),
		NewDense(5, 3).InitHe(rng), NewFlip(3), NewReLU(3),
		NewDense(3, 2).InitHe(rng),
	)
	layout := net.SiteLayout()
	if len(layout) != 4 {
		t.Fatalf("layout has %d events", len(layout))
	}
	// flip0, relu0, flip1, relu1 all on the top-level sequence (0), with
	// ReLUs directly after their flips.
	for i, ev := range layout {
		if ev.Seq != 0 {
			t.Fatalf("event %d in seq %d", i, ev.Seq)
		}
	}
	if !layout[0].IsFlip || layout[1].IsFlip || layout[1].Pos != layout[0].Pos+1 {
		t.Fatal("flip/relu adjacency wrong")
	}
}

func TestSiteLayoutResidualSequences(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	body := []Layer{NewDense(4, 4).InitHe(rng), NewFlip(4), NewReLU(4), NewDense(4, 4).InitHe(rng), NewFlip(4)}
	net := NewNetwork(
		NewDense(4, 4).InitHe(rng), NewFlip(4), NewReLU(4),
		NewResidual(body, nil), NewReLU(4),
		NewDense(4, 2).InitHe(rng),
	)
	layout := net.SiteLayout()
	// Events: flip0,relu0 (seq 0), flip1,relu1,flip2 (body seq), relu2 (seq 0).
	if len(layout) != 6 {
		t.Fatalf("layout has %d events", len(layout))
	}
	if layout[2].Seq == 0 || layout[4].Seq != layout[2].Seq {
		t.Fatal("body events not in their own sequence")
	}
	// The post-add ReLU is top-level and NOT position-adjacent to the last
	// body flip (they live in different sequences).
	last := layout[5]
	if last.IsFlip || last.Seq != 0 {
		t.Fatalf("expected top-level relu, got %+v", last)
	}
}

func TestReluInJacobianMatchesFD(t *testing.T) {
	rng := rand.New(rand.NewSource(54))
	conv := NewConv2D(1, 6, 6, 2, 3, 1, 0).InitHe(rng)
	pool := NewMaxPool2D(2, conv.OutH, conv.OutW, 2, 2)
	net := NewNetwork(
		conv, NewFlip(conv.OutSize()), NewReLU(conv.OutSize()), pool,
		NewDense(pool.OutSize(), 4).InitHe(rng), NewFlip(4), NewReLU(4),
		NewDense(4, 2).InitHe(rng),
	)
	x := randBatch(rng, 1, conv.InSize()).Row(0)
	for site := 0; site < 2; site++ {
		u, j := net.ReluInJacobian(x, site)
		defer tensor.PutMatrix(j)
		fd := fdJacobian(func(xx []float64) []float64 {
			return net.ForwardTrace(xx).ReluIn[site]
		}, x, 1e-6)
		if !tensor.Equal(j, fd, 1e-4) {
			t.Fatalf("relu %d Jacobian mismatch", site)
		}
		ref := net.ForwardTrace(x).ReluIn[site]
		for i := range u {
			if math.Abs(u[i]-ref[i]) > 1e-12 {
				t.Fatal("relu input value mismatch")
			}
		}
	}
}

func TestTraceReluInMatchesPostForGatedFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	f := NewFlip(5)
	f.SetBit(2, true)
	net := NewNetwork(NewDense(3, 5).InitHe(rng), f, NewReLU(5), NewDense(5, 2).InitHe(rng))
	x := randBatch(rng, 1, 3).Row(0)
	tr := net.ForwardTrace(x)
	for i := range tr.Post[0] {
		if tr.Post[0][i] != tr.ReluIn[0][i] {
			t.Fatal("gated relu input must equal flip output")
		}
	}
}
