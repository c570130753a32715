// Package geometry implements the geometric view of deep ReLU networks from
// the paper's §3.2: activation patterns, the recursive product weight
// matrix / product bias vector of Formulas 2–4, and linear-region tooling.
// The product-matrix computation is the fast algebraic path for sequential
// piecewise-linear networks; arbitrary topologies use nn's JVP instead
// (§4.1 "built-in Jacobian").
package geometry

import (
	"errors"
	"fmt"

	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

// ErrNotSequentialPWL is returned when a network contains layers outside
// the sequential Dense/Flip/ReLU/Flatten fragment that Formulas 2–4 cover.
var ErrNotSequentialPWL = errors.New("geometry: network is not a sequential piecewise-linear stack")

// AffineMap is a region-local affine function x ↦ A·x + b.
type AffineMap struct {
	A *tensor.Matrix
	B []float64
}

// Apply evaluates the map.
func (m AffineMap) Apply(x []float64) []float64 {
	y := tensor.MatVec(m.A, x)
	for i := range y {
		y[i] += m.B[i]
	}
	return y
}

// ProductMatrix computes the paper's Â^(i) and b̂^(i) (Formulas 2–4) for the
// unsigned pre-activation entering flip site `site`, under the activation
// patterns recorded in tr. Valid for sequential Dense/Flip/ReLU/Flatten
// networks; other layers yield ErrNotSequentialPWL.
//
// The returned map satisfies u_site(x) = Â·x + b̂ for every x in the linear
// region that produced tr.
func ProductMatrix(net *nn.Network, tr *nn.Trace, site int) (AffineMap, error) {
	return walkAffine(net, tr, site, -1)
}

// ProductMatrixAtReLU computes the affine map of the input of ReLU site
// `reluSite` under the activation patterns of tr — the hyperplane geometry
// of the network's actual kinks, used by the attack's validation.
func ProductMatrixAtReLU(net *nn.Network, tr *nn.Trace, reluSite int) (AffineMap, error) {
	return walkAffine(net, tr, -1, reluSite)
}

// RegionAffineMap computes the end-to-end affine map of the linear region
// containing the traced input: f(x) = A·x + b throughout the region.
func RegionAffineMap(net *nn.Network, tr *nn.Trace) (AffineMap, error) {
	return walkAffine(net, tr, -1, -1)
}

// FoldsToSite reports whether ProductMatrix can fold net up to flip site
// `site`: every top-level layer before it is Dense, Flip, ReLU or Flatten.
// It depends on the architecture alone, so callers check it before they
// trace an input for the fold.
func FoldsToSite(net *nn.Network, site int) bool { return foldCheck(net, site, -1) == nil }

// FoldsToReLU is FoldsToSite for ProductMatrixAtReLU.
func FoldsToReLU(net *nn.Network, reluSite int) bool { return foldCheck(net, -1, reluSite) == nil }

// foldCheck walks the top-level layers as walkAffine would, without
// folding anything. It returns ErrNotSequentialPWL at the first layer
// Formulas 2–4 do not cover, and an error if a requested stop site is not
// among the top-level layers.
func foldCheck(net *nn.Network, stopSite, stopReLU int) error {
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Flip:
			if v.SiteID == stopSite {
				return nil
			}
		case *nn.ReLU:
			if v.SiteID == stopReLU {
				return nil
			}
		case *nn.Dense, *nn.Flatten:
		default:
			return ErrNotSequentialPWL
		}
	}
	if stopSite >= 0 || stopReLU >= 0 {
		return fmt.Errorf("geometry: stop site (flip %d / relu %d) not found", stopSite, stopReLU)
	}
	return nil
}

// walkAffine folds layers into an affine map. If stopSite >= 0 it returns
// the map of the unsigned pre-activation entering that flip site; if
// stopReLU >= 0 it returns the map of the input of that ReLU site;
// otherwise it folds the whole network. A network it cannot fold fails
// foldCheck before anything is allocated.
func walkAffine(net *nn.Network, tr *nn.Trace, stopSite, stopReLU int) (AffineMap, error) {
	if err := foldCheck(net, stopSite, stopReLU); err != nil {
		return AffineMap{}, err
	}
	p := net.InSize()
	cur := AffineMap{A: tensor.Identity(p), B: make([]float64, p)}
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			cur = AffineMap{
				A: tensor.MatMul(v.W.W, cur.A),
				B: tensor.VecAdd(tensor.MatVec(v.W.W, cur.B), v.B.W.Row(0)),
			}
		case *nn.Flip:
			if v.SiteID == stopSite {
				return cur, nil
			}
			a := cur.A.Clone()
			b := tensor.VecClone(cur.B)
			for i, s := range v.Signs {
				//lint:ignore floatcmp Signs hold the exact sentinel values the locker wrote
				if s != 1 {
					row := a.Row(i)
					for c := range row {
						row[c] *= s
					}
					b[i] *= s
				}
				if v.Offsets != nil {
					b[i] += v.Offsets[i]
				}
			}
			cur = AffineMap{A: a, B: b}
		case *nn.ReLU:
			if v.SiteID == stopReLU {
				return cur, nil
			}
			pat := tr.Patterns[v.SiteID]
			if pat == nil {
				return AffineMap{}, fmt.Errorf("geometry: trace has no pattern for ReLU site %d", v.SiteID)
			}
			a := cur.A.Clone().MaskRows(pat)
			b := tensor.VecClone(cur.B)
			for i, on := range pat {
				if !on {
					b[i] = 0
				}
			}
			cur = AffineMap{A: a, B: b}
		}
	}
	return cur, nil
}

// PatternsEqual reports whether two activation-pattern stacks agree, which
// by §3.2 means the two inputs lie in the same linear region.
func PatternsEqual(a, b [][]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

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

// HyperplaneWitness reports whether x lies within tol of the hyperplane
// induced by the neuron at (site, index): |u_{site,index}(x)| ≤ tol.
func HyperplaneWitness(net *nn.Network, x []float64, site, index int, tol float64) bool {
	tr := net.ForwardTrace(x)
	u := tr.Pre[site][index]
	if u < 0 {
		u = -u
	}
	return u <= tol
}
