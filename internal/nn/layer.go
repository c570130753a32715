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

// JVPTrace records, for one forward-mode sweep, the Jacobians (w.r.t. the
// network input) of the unsigned pre-activation at each flip site and of
// the input of each ReLU site. The matrix at a site of width d is d × P.
type JVPTrace struct {
	PreJ  []*tensor.Matrix
	ReluJ []*tensor.Matrix
}

// Have reports whether flip site s has been recorded.
func (t *JVPTrace) Have(s int) bool {
	return t != nil && s < len(t.PreJ) && t.PreJ[s] != nil
}

// HaveReLU reports whether ReLU site r has been recorded.
func (t *JVPTrace) HaveReLU(r int) bool {
	return t != nil && r < len(t.ReluJ) && t.ReluJ[r] != nil
}

// Layer is the building block of a Network.
//
// Forward must be pure (safe for concurrent use); it records into tr when tr
// is non-nil. JVP propagates the value x together with the Jacobian J
// (d_in × P) of x w.r.t. the network input, recording flip-site Jacobians
// into jtr when non-nil.
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

	Forward(x []float64, tr *Trace) []float64
	ForwardBatch(x *tensor.Matrix) *tensor.Matrix

	TrainForward(x *tensor.Matrix) *tensor.Matrix
	Backward(dy *tensor.Matrix) *tensor.Matrix

	JVP(x []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix)

	Params() []*Param
}

// siteRegistrar is implemented by layers that own a recordable site (Flip,
// SoftFlip, ReLU) so Network.build can assign site IDs, including inside
// containers.
type siteRegistrar interface {
	registerSites(nextFlip, nextReLU *int)
}

// container is implemented by layers that hold sub-layers (Residual).
type container interface {
	subLayers() []Layer
}

// trainStateOwner is implemented by layers whose training passes keep
// state: dropTrainState forgets the cached input and releases every buffer,
// so the next TrainForward starts afresh.
type trainStateOwner interface {
	dropTrainState()
}

// dropTrainState drops the training state of every layer in ls, including
// the sub-layers of containers.
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
	// Every row is fully assigned from the layer's Forward result, so a
	// pooled buffer is safe.
	out := tensor.GetMatrix(x.Rows, l.OutSize())
	for i := 0; i < x.Rows; i++ {
		out.SetRow(i, l.Forward(x.Row(i), nil))
	}
	return out
}
