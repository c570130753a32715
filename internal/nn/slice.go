package nn

import (
	"fmt"
	"sync"

	"dnnlock/internal/tensor"
)

// Slice partitions a network's layer sequence into a frozen prefix and a
// trainable suffix for the §3.6 learning attack. The attack freezes every
// weight and fits only soft flip coefficients, so when the earliest softened
// flip sits at layer k the forward values of layers 0..k-1 are a pure
// function of the input: they can be evaluated exactly once per query set
// and replayed from a cache on every minibatch of every epoch, and no
// gradient ever needs to flow back across the boundary.
//
// The cut is placed at top-level layer granularity: the suffix starts at the
// first top-level layer that contains the given flip site (possibly inside
// a Residual container). Flip site IDs are assigned in network walk order,
// so every flip in the prefix has a strictly smaller site ID and therefore
// stays hard/frozen during the fit.
//
// Numerical identity with the unsliced path is a design guarantee, not an
// approximation: every layer's batch forward processes rows independently
// with a fixed per-element accumulation order (see internal/tensor
// kernels.go), so an example's prefix activation does not depend on which
// batch it was computed in, and the suffix sees the same values whether the
// prefix ran per-minibatch or once up front. The property tests in
// slice_test.go and core's slice equivalence tests enforce this.
type Slice struct {
	net *Network
	cut int // index of the first suffix layer in net.Layers
}

// Split returns the slice whose suffix begins at the first top-level layer
// containing flip site `site`. Panics if the site does not exist.
func (n *Network) Split(site int) *Slice {
	for i, l := range n.Layers {
		if layerHasFlipSite(l, site) {
			return &Slice{net: n, cut: i}
		}
	}
	panic(fmt.Sprintf("nn: flip site %d not found in network", site))
}

// FullSlice returns the degenerate slice with an empty prefix; its suffix
// passes are exactly the network's TrainForward/TrainBackward. It is the
// reference path the slice equivalence tests (and the unsliced ablation)
// compare against.
func (n *Network) FullSlice() *Slice { return &Slice{net: n, cut: 0} }

// layerHasFlipSite reports whether l is, or contains, the flip with the
// given site ID.
func layerHasFlipSite(l Layer, site int) bool {
	switch v := l.(type) {
	case *Flip:
		return v.SiteID == site
	case container:
		for _, sub := range v.subLayers() {
			if layerHasFlipSite(sub, site) {
				return true
			}
		}
	}
	return false
}

// Cut returns the index of the first suffix layer.
func (s *Slice) Cut() int { return s.cut }

// BoundaryWidth returns the activation width at the slice boundary (the
// suffix's input size).
func (s *Slice) BoundaryWidth() int {
	if s.cut == 0 {
		return s.net.InSize()
	}
	return s.net.Layers[s.cut-1].OutSize()
}

// PrefixForward evaluates the frozen prefix for every row of x and returns
// the boundary activations. Rows are sharded over tensor.Parallelism()
// goroutines (Layer.Forward is documented pure), and the cache lands in a
// pooled workspace: the caller must release it with tensor.PutMatrix unless
// the prefix is empty, in which case x itself is returned.
func (s *Slice) PrefixForward(x *tensor.Matrix) *tensor.Matrix {
	if s.cut == 0 {
		return x
	}
	prefix := s.net.Layers[:s.cut]
	h := tensor.GetMatrix(x.Rows, s.BoundaryWidth())
	rowRange := func(lo, hi int) {
		for i := lo; i < hi; i++ {
			v := x.Row(i)
			for _, l := range prefix {
				v = l.Forward(v, nil)
			}
			copy(h.Row(i), v)
		}
	}
	workers := tensor.Parallelism()
	if workers > x.Rows {
		workers = x.Rows
	}
	if workers <= 1 {
		rowRange(0, x.Rows)
		return h
	}
	// Own goroutines, not tensor pool tasks: a layer's Forward may itself
	// fan kernels out to the pool (see parallel.go's leaf-task rule).
	var wg sync.WaitGroup
	chunk := (x.Rows + workers - 1) / workers
	for lo := 0; lo < x.Rows; lo += chunk {
		hi := lo + chunk
		if hi > x.Rows {
			hi = x.Rows
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			rowRange(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return h
}

// TrainForward runs the caching training forward pass over the suffix only.
// h holds boundary activations (rows of a PrefixForward cache). The result
// belongs to the last layer (see Layer).
func (s *Slice) TrainForward(h *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.net.Layers[s.cut:] {
		h = l.TrainForward(h)
	}
	return h
}

// Backward propagates the output gradient through the suffix, accumulating
// the gradients of unfrozen parameters, and stops at the slice boundary: no
// gradient flows into the frozen prefix. On a CloneForKeys network only the
// soft flip coefficients accumulate anything.
func (s *Slice) Backward(dy *tensor.Matrix) {
	backwardChain(s.net.Layers[s.cut:], dy)
}
