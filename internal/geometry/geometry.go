// Package geometry implements the linear-region view of deep ReLU networks
// from the paper's §3.2: activation patterns as region keys, and the
// linear-region census behind Figure 2. The region-local affine maps of
// Formulas 2–4 are the network's exact Jacobian (nn's JVP).
package geometry

import "dnnlock/internal/nn"

// PatternKey serializes an activation-pattern stack into a compact string
// usable as a map key when counting linear regions.
func PatternKey(p [][]bool) string {
	total := 0
	for _, layer := range p {
		total += len(layer) + 1
	}
	buf := make([]byte, 0, total)
	for _, layer := range p {
		for _, on := range layer {
			if on {
				buf = append(buf, '1')
			} else {
				buf = append(buf, '0')
			}
		}
		buf = append(buf, '|')
	}
	return string(buf)
}

// CountLinearRegions2D rasterizes the [−lim, lim]² square of a 2-input
// network at n×n resolution and counts the distinct linear regions hit —
// the quantitative companion to the paper's Figure 2(b).
func CountLinearRegions2D(net *nn.Network, n int, lim float64) int {
	if net.InSize() != 2 {
		panic("geometry: CountLinearRegions2D needs a 2-input network")
	}
	seen := make(map[string]struct{})
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			x := []float64{
				-lim + 2*lim*float64(i)/float64(n-1),
				-lim + 2*lim*float64(j)/float64(n-1),
			}
			tr := net.ForwardTrace(x)
			seen[PatternKey(tr.Patterns)] = struct{}{}
		}
	}
	return len(seen)
}
