// Package nn implements the deep-network substrate of the reproduction: a
// layer zoo (dense, convolution, pooling, residual blocks, ReLU
// self-attention), batched forward/backward passes for training, and an
// exact forward-mode Jacobian (JVP) used by the attack to compute the
// product weight matrix Â^(i) of the paper's Formulas 2–3 on arbitrary
// topologies.
//
// Data layout: between layers every example is a flat []float64; layers that
// care about spatial or token structure interpret the flat vector
// internally. Batches are tensor.Matrix values with one example per row.
package nn

import (
	"fmt"

	"dnnlock/internal/tensor"
)

// Param is a learnable parameter tensor with its gradient accumulator.
//
// A frozen parameter is skipped by optimizers, and every layer's Backward
// skips its gradient work, so G stays untouched. The frozen views that
// Network.CloneForKeys hands out share W with the source network and have
// no gradient buffer at all (G is nil).
type Param struct {
	Name   string
	W      *tensor.Matrix
	G      *tensor.Matrix
	Frozen bool
}

// NewParam allocates a parameter and its gradient buffer.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), G: tensor.New(rows, cols)}
}

// frozenParam returns a frozen view of p: it shares p's weight matrix and
// has no gradient buffer.
func frozenParam(p *Param) *Param { return &Param{Name: p.Name, W: p.W, Frozen: true} }

// ZeroGrad clears the gradient accumulator, if the parameter has one.
func (p *Param) ZeroGrad() {
	if p.G != nil {
		p.G.Zero()
	}
}

// Trace records the internal signals of one forward pass that the attack
// consumes: the unsigned pre-activation entering every flip site (the
// paper's z before the (-1)^K factor), the signed value leaving it, and the
// activation pattern m^(i) of every ReLU site.
type Trace struct {
	Pre      [][]float64 // indexed by flip-site ID
	Post     [][]float64 // indexed by flip-site ID
	Patterns [][]bool    // indexed by ReLU-site ID
	ReluIn   [][]float64 // indexed by ReLU-site ID: the rectifier's input
	Out      []float64   // network output
}

// JVPTrace names the one site a forward-mode sweep stops at: a flip site,
// whose Jacobian is that of the unsigned pre-activation entering it, or a
// ReLU site, whose Jacobian is that of the rectifier's input. The layer
// owning the site marks the trace and returns its input value and tangent
// untouched; every enclosing chain then returns at once, so the sweep ends
// carrying the site's value and Jacobian (d × P) and computes nothing
// downstream. A nil trace sweeps the whole network.
type JVPTrace struct {
	flip, relu int // target flip or ReLU site; -1 names no site
	hit        bool
}

// stopAtFlip reports whether flip site s is the target, marking the trace
// as stopped when it is.
func (t *JVPTrace) stopAtFlip(s int) bool {
	if t == nil || t.flip != s {
		return false
	}
	t.hit = true
	return true
}

// stopAtReLU is stopAtFlip for ReLU site r.
func (t *JVPTrace) stopAtReLU(r int) bool {
	if t == nil || t.relu != r {
		return false
	}
	t.hit = true
	return true
}

// stopped reports whether the sweep has reached its target site.
func (t *JVPTrace) stopped() bool { return t != nil && t.hit }

// Layer is the building block of a Network.
//
// Forward is the layer's one single-example pass: it writes all OutSize()
// outputs of input x into y, which must not alias x (shape-only layers
// such as Flatten copy), and records into tr when tr is non-nil. y may come
// from the workspace pool with arbitrary contents. Forward must be pure
// (safe for concurrent use). Recorded values are copies, so the caller may
// recycle x and y at once.
//
// JVP propagates the value x together with the Jacobian J (d_in × P) of x
// w.r.t. the network input. It consumes its tangent: J is a pooled
// workspace matrix the chain owns, which the layer either updates in place
// and returns (Flip, ReLU, Flatten) or releases with tensor.PutMatrix after
// writing the result into a fresh pooled matrix. Either way the caller owns
// the returned tangent and must not touch J again. The returned value is a
// fresh slice, except that shape-only layers (Flatten) pass x through. When
// the layer owns jtr's target site, it returns x and J unchanged instead
// and the sweep ends there (see JVPTrace).
//
// TrainForward and Backward are the training passes. They keep state in the
// layer (the cached input, activity masks, and the buffers they write into),
// so one layer value serves one goroutine; Network.CloneForKeys gives each
// clone its own layer values. Backward needs the preceding TrainForward's
// input to stay unchanged until it returns. Both return a matrix the layer
// owns and reslices on every call: a result is valid until that layer's
// next call of the same method, and callers neither release it to the
// workspace pool nor retain it. Layers that pass their argument through
// (Flatten) return the caller's matrix instead. Backward skips the
// gradient work of frozen parameters and computes dX in the same order
// either way.
type Layer interface {
	Name() string
	InSize() int
	OutSize() int

	Forward(y, x []float64, tr *Trace)
	ForwardBatch(x *tensor.Matrix) *tensor.Matrix

	TrainForward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix

	JVP(x []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix)

	Params() []*Param
}

// hasSite reports whether l is, or inside a Residual holds, flip site flip
// or ReLU site relu; -1 names no site.
func hasSite(l Layer, flip, relu int) bool {
	switch v := l.(type) {
	case *Flip:
		return v.SiteID == flip
	case *ReLU:
		return v.SiteID == relu
	case *Residual:
		for _, path := range [...][]Layer{v.Body, v.Shortcut} {
			for _, sub := range path {
				if hasSite(sub, flip, relu) {
					return true
				}
			}
		}
	}
	return false
}

// trainStateOwner is implemented by layers whose training passes keep
// state: dropTrainState forgets the cached input and releases every buffer,
// so the next TrainForward starts afresh.
type trainStateOwner interface {
	dropTrainState()
}

// dropTrainState drops the training state of every layer in ls; a
// Residual drops that of its paths.
func dropTrainState(ls []Layer) {
	for _, l := range ls {
		if o, ok := l.(trainStateOwner); ok {
			o.dropTrainState()
		}
	}
}

// ensure returns *cur resliced to rows×cols, allocating it on first use or
// when a larger batch arrives. A training pass keeps one such buffer per
// output, so after the first (largest) minibatch it allocates nothing. The
// contents are whatever the previous call left: callers overwrite or clear
// them.
func ensure(cur **tensor.Matrix, rows, cols int) *tensor.Matrix {
	m := *cur
	if m == nil || cap(m.Data) < rows*cols {
		m = tensor.New(rows, cols)
		*cur = m
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:rows*cols]
	return m
}

func checkSize(layer string, want, got int) {
	if want != got {
		panic(fmt.Sprintf("nn: %s expected input size %d, got %d", layer, want, got))
	}
}

// forwardBatchViaSingle implements ForwardBatch for layers whose batch path
// is just a per-row map of the single-example path.
func forwardBatchViaSingle(l Layer, x *tensor.Matrix) *tensor.Matrix {
	// Forward assigns every element of its output row, so a pooled buffer
	// is safe.
	out := tensor.GetMatrix(x.Rows, l.OutSize())
	for i := 0; i < x.Rows; i++ {
		l.Forward(out.Row(i), x.Row(i), nil)
	}
	return out
}

// forwardChain runs layers over x, staging each layer's output in a pooled
// vector and releasing the one it consumed, and records into tr when tr is
// non-nil. A non-nil stop is checked after every layer; once it reports
// true the walk releases its vector and returns nil. Otherwise it returns
// the last layer's output (a pooled copy of x when layers is empty), which
// the caller releases with tensor.PutVec.
func forwardChain(layers []Layer, x []float64, tr *Trace, stop func() bool) []float64 {
	if len(layers) == 0 {
		y := tensor.GetVec(len(x))
		copy(y, x)
		return y
	}
	cur := x
	for i, l := range layers {
		next := tensor.GetVec(l.OutSize())
		l.Forward(next, cur, tr)
		if i > 0 {
			tensor.PutVec(cur)
		}
		cur = next
		if stop != nil && stop() {
			tensor.PutVec(cur)
			return nil
		}
	}
	return cur
}
