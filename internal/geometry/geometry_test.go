package geometry

import (
	"math/rand"
	"testing"

	"dnnlock/internal/nn"
)

// TestPatternsEqualAndKey: equal pattern stacks (the same linear region,
// §3.2) share a key, and different ones do not.
func TestPatternsEqualAndKey(t *testing.T) {
	a := [][]bool{{true, false}, {true}}
	b := [][]bool{{true, false}, {true}}
	c := [][]bool{{true, true}, {true}}
	if PatternKey(a) == PatternKey(c) {
		t.Fatal("PatternKey collision")
	}
	if PatternKey(a) != PatternKey(b) {
		t.Fatal("PatternKey not deterministic")
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
