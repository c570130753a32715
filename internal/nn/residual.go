package nn

import (
	"dnnlock/internal/tensor"
)

// Residual computes y = shortcut(x) + body(x), the basic block topology of
// ResNet (He et al. 2016). An empty shortcut is the identity; a non-empty
// shortcut (e.g. a strided 1×1 convolution) handles shape changes.
type Residual struct {
	Body     []Layer
	Shortcut []Layer // nil/empty means identity

	y, dx *tensor.Matrix // training-pass buffers (see Layer)
}

// NewResidual constructs a residual block.
func NewResidual(body []Layer, shortcut []Layer) *Residual {
	r := &Residual{Body: body, Shortcut: shortcut}
	if r.InSize() != 0 && r.OutSize() != 0 && len(shortcut) == 0 && r.InSize() != r.OutSize() {
		panic("nn: identity-shortcut residual needs matching in/out sizes")
	}
	return r
}

func (r *Residual) Name() string { return "residual" }

// InSize returns the body's input size.
func (r *Residual) InSize() int { return r.Body[0].InSize() }

// OutSize returns the body's output size.
func (r *Residual) OutSize() int { return r.Body[len(r.Body)-1].OutSize() }

func (r *Residual) subLayers() []Layer {
	out := append([]Layer(nil), r.Body...)
	return append(out, r.Shortcut...)
}

// Forward runs both paths and sums them.
func (r *Residual) Forward(x []float64, tr *Trace) []float64 {
	b := x
	for _, l := range r.Body {
		b = l.Forward(b, tr)
	}
	s := x
	for _, l := range r.Shortcut {
		s = l.Forward(s, tr)
	}
	return tensor.VecAdd(b, s)
}

// ForwardBatch runs both paths and sums them. Consumed chain intermediates
// go back to the workspace pool.
func (r *Residual) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	b := forwardBatchChain(r.Body, x)
	s := forwardBatchChain(r.Shortcut, x)
	// Same arithmetic as tensor.Add(b, s): copy b, then one pass of +=.
	out := tensor.GetMatrix(b.Rows, b.Cols)
	copy(out.Data, b.Data)
	for i, v := range s.Data {
		out.Data[i] += v
	}
	if b != x {
		tensor.PutMatrix(b)
	}
	if s != x && s != b {
		tensor.PutMatrix(s)
	}
	return out
}

// TrainForward runs both paths with caching.
func (r *Residual) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	b := x
	for _, l := range r.Body {
		b = l.TrainForward(b)
	}
	s := x
	for _, l := range r.Shortcut {
		s = l.TrainForward(s)
	}
	return addInto(ensure(&r.y, b.Rows, b.Cols), b, s)
}

// Backward propagates through both paths and sums the input gradients.
func (r *Residual) Backward(dy *tensor.Matrix) *tensor.Matrix {
	db := backwardChain(r.Body, dy)
	ds := backwardChain(r.Shortcut, dy)
	return addInto(ensure(&r.dx, db.Rows, db.Cols), db, ds)
}

// addInto writes a + b into dst element by element (the arithmetic of
// tensor.Add) and returns dst.
func addInto(dst, a, b *tensor.Matrix) *tensor.Matrix {
	bd := b.Data[:len(a.Data)]
	for i, v := range a.Data {
		dst.Data[i] = v + bd[i]
	}
	return dst
}

func (r *Residual) dropTrainState() {
	r.y, r.dx = nil, nil
	dropTrainState(r.Body)
	dropTrainState(r.Shortcut)
}

// forwardBatchChain folds ForwardBatch over layers, releasing each consumed
// intermediate to the workspace pool. Safe because no layer retains its
// ForwardBatch result; identity layers (Flatten) hand back their input
// unchanged, which is caught by pointer equality. The caller's x is never
// released.
func forwardBatchChain(layers []Layer, x *tensor.Matrix) *tensor.Matrix {
	cur := x
	for _, l := range layers {
		next := l.ForwardBatch(cur)
		if cur != x && next != cur {
			tensor.PutMatrix(cur)
		}
		cur = next
	}
	return cur
}

// backwardChain folds Backward over layers in reverse. Every intermediate
// gradient belongs to the layer that produced it, so nothing is released.
func backwardChain(layers []Layer, dy *tensor.Matrix) *tensor.Matrix {
	for i := len(layers) - 1; i >= 0; i-- {
		dy = layers[i].Backward(dy)
	}
	return dy
}

// JVP propagates value and tangent through both paths and sums them.
func (r *Residual) JVP(x []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix) {
	bv, bj := x, j
	for _, l := range r.Body {
		bv, bj = l.JVP(bv, bj, jtr)
	}
	sv, sj := x, j
	for _, l := range r.Shortcut {
		sv, sj = l.JVP(sv, sj, jtr)
	}
	return tensor.VecAdd(bv, sv), tensor.Add(bj, sj)
}

// Params returns all parameters of both paths.
func (r *Residual) Params() []*Param {
	var out []*Param
	for _, l := range r.subLayers() {
		out = append(out, l.Params()...)
	}
	return out
}
