// Geometry demo: the quantitative companion to the paper's Figure 2. It
// builds a small 2-input ReLU network, prints activation patterns (Figure
// 2(a)), rasterizes the linear regions its hyperplanes cut the plane into
// (Figure 2(b)), verifies the region-local affine map of Formulas 2–4, and
// finds a hyperplane witness with the attack's critical-point search. It
// exits 1 if the affine map mispredicts the network inside its region.
package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"

	"dnnlock/internal/geometry"
	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

func main() {
	rng := rand.New(rand.NewSource(2))
	// The Figure 2 toy: 2 inputs, two hidden layers of 3 ReLUs, 1 output.
	d1 := nn.NewDense(2, 3).InitHe(rng)
	d2 := nn.NewDense(3, 3).InitHe(rng)
	d3 := nn.NewDense(3, 1).InitHe(rng)
	// Random biases move the hyperplanes off the origin, giving the bent
	// arrangement of Figure 2(b).
	for _, d := range []*nn.Dense{d1, d2, d3} {
		for i := range d.B.W.Data {
			d.B.W.Data[i] = rng.NormFloat64()
		}
	}
	net := nn.NewNetwork(
		d1, nn.NewFlip(3), nn.NewReLU(3),
		d2, nn.NewFlip(3), nn.NewReLU(3),
		d3,
	)

	// Activation patterns at a sample input (Figure 2(a)).
	x := []float64{0.7, -0.4}
	tr := net.ForwardTrace(x)
	fmt.Printf("input %v -> output %.4f\n", x, tr.Out[0])
	for i, pat := range tr.Patterns {
		fmt.Printf("activation pattern m^(%d) = %v\n", i+1, boolsToBits(pat))
	}

	// Linear-region census over [-3, 3]^2 (Figure 2(b)).
	regions := geometry.CountLinearRegions2D(net, 200, 3)
	fmt.Printf("\nhyperplanes of 6 ReLUs cut [-3,3]² into %d observed linear regions\n", regions)

	// ASCII rasterization of the regions.
	fmt.Println("\nregion map (each glyph = one linear region):")
	const n = 48
	ids := map[string]byte{}
	glyphs := []byte(".:-=+*#%@&oxwXOMW$abcdefgh123456789ABCDEFGH")
	for i := n - 1; i >= 0; i-- {
		line := make([]byte, n)
		for j := 0; j < n; j++ {
			p := []float64{
				-3 + 6*float64(j)/float64(n-1),
				-3 + 6*float64(i)/float64(n-1),
			}
			key := geometry.PatternKey(net.ForwardTrace(p).Patterns)
			if _, ok := ids[key]; !ok {
				ids[key] = glyphs[len(ids)%len(glyphs)]
			}
			line[j] = ids[key]
		}
		fmt.Println(string(line))
	}

	// Every region is one affine map (§3.2): f(z) = A·z + b, where A is the
	// network's exact Jacobian in the region (Formulas 2–4) and b = f(x) −
	// A·x. At x that holds by construction, so check it at a second point
	// of the same region.
	y, jac := net.OutputJacobian(x)
	a1, a2 := jac.At(0, 0), jac.At(0, 1)
	tensor.PutMatrix(jac)
	b0 := y[0] - (a1*x[0] + a2*x[1])
	fmt.Printf("\nregion affine map: f(x) = %.4f·x1 + %.4f·x2 + %.4f\n", a1, a2, b0)
	region := geometry.PatternKey(tr.Patterns)
	var x2 []float64
	for step := 0.1; step > 1e-6; step /= 2 {
		if p := []float64{x[0] + step, x[1] - step}; geometry.PatternKey(net.ForwardTrace(p).Patterns) == region {
			x2 = p
			break
		}
	}
	if x2 == nil {
		fmt.Println("no second point found in the region of x")
		os.Exit(1)
	}
	pred, got := a1*x2[0]+a2*x2[1]+b0, net.Forward(x2)[0]
	fmt.Printf("at x' = (%.4f, %.4f) in the same region: affine prediction %.6f vs network %.6f (diff %.1e)\n",
		x2[0], x2[1], pred, got, math.Abs(pred-got))
	if math.Abs(pred-got) > 1e-9 {
		fmt.Println("affine map mispredicts the network inside its region")
		os.Exit(1)
	}

	// A hyperplane witness for neuron η_{1,0}, in the spirit of §3.5:
	// bisect a random segment until the pre-activation crosses zero.
	a := []float64{-3, -3}
	b := []float64{3, 3}
	ua := net.ForwardTrace(a).Pre[0][0]
	for iter := 0; iter < 80; iter++ {
		mid := tensor.VecScale(0.5, tensor.VecAdd(a, b))
		um := net.ForwardTrace(mid).Pre[0][0]
		if (ua > 0) == (um > 0) {
			a, ua = mid, um
		} else {
			b = mid
		}
	}
	fmt.Printf("\ncritical point of η(1,0): x° = (%.5f, %.5f), |z| = %.2e\n",
		a[0], a[1], math.Abs(net.ForwardTrace(a).Pre[0][0]))
}

func boolsToBits(p []bool) string {
	out := make([]byte, len(p))
	for i, b := range p {
		if b {
			out[i] = '1'
		} else {
			out[i] = '0'
		}
	}
	return string(out)
}
