package nn

import (
	"math"

	"dnnlock/internal/tensor"
)

// ReLU is the element-wise rectifier φ(z) = max(z, 0). A ReLU owns a site ID
// so forward traces can record its activation pattern m^(i) (paper §3.2).
type ReLU struct {
	N      int
	SiteID int

	// Training-pass state (see Layer): the activity bitmask (all ones where
	// the input was > 0) and the output buffers.
	mask  []uint64
	y, dx *tensor.Matrix
}

// NewReLU constructs an n-wide rectifier.
func NewReLU(n int) *ReLU { return &ReLU{N: n, SiteID: -1} }

func (r *ReLU) Name() string { return "relu" }

// InSize returns the width.
func (r *ReLU) InSize() int { return r.N }

// OutSize returns the width.
func (r *ReLU) OutSize() int { return r.N }

func (r *ReLU) registerSites(nextFlip, nextReLU *int) {
	r.SiteID = *nextReLU
	*nextReLU++
}

// Forward rectifies x, recording the activation pattern into tr if non-nil.
// The boundary z == 0 is treated as inactive, matching the paper's
// definition (a neuron is active iff z > 0).
func (r *ReLU) Forward(x []float64, tr *Trace) []float64 {
	checkSize("relu", r.N, len(x))
	y := make([]float64, r.N)
	var pat []bool
	if tr != nil {
		pat = make([]bool, r.N)
	}
	for i, v := range x {
		if v > 0 {
			y[i] = v
			if pat != nil {
				pat[i] = true
			}
		}
	}
	if tr != nil {
		tr.Patterns[r.SiteID] = pat
		tr.ReluIn[r.SiteID] = append([]float64(nil), x...)
	}
	return y
}

// ForwardBatch rectifies a batch. Every element of the pooled output is
// assigned, so the buffer's arbitrary contents never show through.
func (r *ReLU) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	out := tensor.GetMatrix(x.Rows, x.Cols)
	od := out.Data
	for i, v := range x.Data {
		if v < 0 {
			od[i] = 0
		} else {
			od[i] = v
		}
	}
	return out
}

// activeBits is the rectifier's activity bitmask for one input: all ones
// when v > 0, zero otherwise (for ±0, negative values and NaN). As an
// integer, v > 0 exactly when its bits lie in (0, bits(+Inf)]; both bounds
// are tested by sign bits, so no branch depends on the input's sign.
func activeBits(v float64) uint64 {
	const posInf = 0x7FF0000000000000 // bits of +Inf
	i := int64(math.Float64bits(v))
	return uint64((-i & (i - posInf - 1)) >> 63)
}

// TrainForward rectifies and caches the activity bitmask. Pre-activation
// signs are effectively random mid-fit, so both training passes mask bits
// instead of branching; an inactive unit's bits clear to +0.
func (r *ReLU) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	y := ensure(&r.y, x.Rows, x.Cols)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]uint64, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	mask, yd := r.mask, y.Data[:len(x.Data)]
	for i, v := range x.Data {
		m := activeBits(v)
		mask[i] = m
		yd[i] = math.Float64frombits(math.Float64bits(v) & m)
	}
	return y
}

// Backward gates the incoming gradient by the cached activity bitmask.
func (r *ReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if r.mask == nil {
		panic("nn: ReLU.Backward before TrainForward")
	}
	dx := ensure(&r.dx, dy.Rows, dy.Cols)
	mask, dxd := r.mask[:len(dy.Data)], dx.Data[:len(dy.Data)]
	for i, g := range dy.Data {
		dxd[i] = math.Float64frombits(math.Float64bits(g) & mask[i])
	}
	return dx
}

func (r *ReLU) dropTrainState() { r.mask, r.y, r.dx = nil, nil, nil }

// JVP gates tangent rows by the activation pattern of the value path and
// records the input Jacobian into jtr.
func (r *ReLU) JVP(x []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix) {
	if jtr != nil {
		jtr.ReluJ[r.SiteID] = j.Clone()
	}
	y := make([]float64, r.N)
	jy := j.Clone()
	for i, v := range x {
		if v > 0 {
			y[i] = v
		} else {
			row := jy.Row(i)
			for c := range row {
				row[c] = 0
			}
		}
	}
	return y, jy
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// Flatten is a shape-only identity layer kept for architectural clarity
// (between spatial and dense stages).
type Flatten struct{ N int }

// NewFlatten constructs an n-wide identity.
func NewFlatten(n int) *Flatten { return &Flatten{N: n} }

func (f *Flatten) Name() string { return "flatten" }

// InSize returns the width.
func (f *Flatten) InSize() int { return f.N }

// OutSize returns the width.
func (f *Flatten) OutSize() int { return f.N }

// Forward returns x unchanged.
func (f *Flatten) Forward(x []float64, _ *Trace) []float64 {
	checkSize("flatten", f.N, len(x))
	return x
}

// ForwardBatch returns x unchanged.
func (f *Flatten) ForwardBatch(x *tensor.Matrix) *tensor.Matrix { return x }

// TrainForward returns x unchanged.
func (f *Flatten) TrainForward(x *tensor.Matrix) *tensor.Matrix { return x }

// Backward returns dy unchanged.
func (f *Flatten) Backward(dy *tensor.Matrix) *tensor.Matrix { return dy }

// JVP returns x and j unchanged.
func (f *Flatten) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	return x, j
}

// Params returns nil.
func (f *Flatten) Params() []*Param { return nil }
