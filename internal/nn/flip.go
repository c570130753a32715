package nn

import (
	"math"

	"dnnlock/internal/tensor"
)

// Flip is the HPNN flipping unit (paper Figure 1(b), Equation 1): it
// multiplies the pre-activation of selected neurons by (-1)^K. A Flip layer
// spans the whole pre-activation vector of one lockable layer; unprotected
// indices keep sign +1. Each Flip owns a flip-site ID under which traces
// record the unsigned (pre-flip) and signed (post-flip) values.
//
// Flip can also run in soft mode for the learning-based attack (§3.6): the
// coefficients of selected indices become continuous values k = tanh(w) in
// [-1, 1] backed by a trainable parameter, while all other indices keep
// their hard signs.
type Flip struct {
	N      int
	SiteID int

	Signs []float64 // hard multiplicative coefficients, length N (±1 for HPNN)

	// Offsets, when non-nil, is added after the multiplication:
	// y = Signs∘x + Offsets. It implements the §3.9 bias-shift locking
	// variant and is zero/nil for plain HPNN.
	Offsets []float64

	// Soft mode state (nil when hard). In soft mode the selected indices
	// compute a continuous relaxation of the flip with K' = 1−2σ(w) in
	// [-1, 1] (K' = +1 ⇒ bit 0, K' = −1 ⇒ bit 1, matching §3.6).
	//
	// When the flip is directly gated by a ReLU, the relaxation
	// interpolates the two branch outputs, (1−s)·ReLU(u) + s·ReLU(−u)
	// with s = σ(w); the output is nonnegative so the following ReLU is
	// the identity and, crucially, the gradient never dies when K'
	// crosses zero (the naive K'·u form pins the pre-activation at the
	// ReLU's dead point). Ungated flips (e.g. before a residual add) use
	// the linear form K'·u.
	softIdx   []int  // indices in soft mode
	softW     *Param // 1×len(softIdx) trainable raw weights
	softGated bool

	// Training-pass state (see Layer): the cached input and output buffers.
	lastX, y, dx *tensor.Matrix
}

// NewFlip constructs an identity flip (all signs +1) of width n.
func NewFlip(n int) *Flip {
	s := make([]float64, n)
	for i := range s {
		s[i] = 1
	}
	return &Flip{N: n, SiteID: -1, Signs: s}
}

func (f *Flip) Name() string { return "flip" }

// InSize returns the width.
func (f *Flip) InSize() int { return f.N }

// OutSize returns the width.
func (f *Flip) OutSize() int { return f.N }

func (f *Flip) registerSites(nextFlip, nextReLU *int) {
	f.SiteID = *nextFlip
	*nextFlip++
}

// SetBit sets the hard key bit of neuron j: bit=true flips the sign.
func (f *Flip) SetBit(j int, bit bool) {
	if bit {
		f.Signs[j] = -1
	} else {
		f.Signs[j] = 1
	}
}

// Bit reports the hard key bit of neuron j.
func (f *Flip) Bit(j int) bool { return f.Signs[j] < 0 }

// Soften switches the given indices to the continuous relaxation and
// returns the trainable parameter. gated must report whether this flip is
// directly rectified by a ReLU (see the soft-mode comment above). Raw
// weights start at 0, i.e. K' = 0: the most uncertain state. Calling
// Soften replaces any previous soft state.
func (f *Flip) Soften(indices []int, gated bool) *Param {
	f.softIdx = append([]int(nil), indices...)
	f.softW = NewParam("flip_soft_w", 1, len(indices))
	f.softGated = gated
	return f.softW
}

// Harden freezes soft coefficients back into hard signs by the sign of K'
// (the paper's "replace ⊥ with 0 if K' positive, 1 otherwise") and leaves
// soft mode. It returns the per-index confidence |K'|, aligned with the
// soften indices.
func (f *Flip) Harden() []float64 {
	if f.softW == nil {
		return nil
	}
	ks := f.SoftCoeffs()
	conf := make([]float64, len(f.softIdx))
	for i, j := range f.softIdx {
		conf[i] = math.Abs(ks[i])
		if ks[i] >= 0 {
			f.Signs[j] = 1
		} else {
			f.Signs[j] = -1
		}
	}
	f.softIdx, f.softW = nil, nil
	return conf
}

// SoftCoeffs returns K' = 1−2σ(w) for the current soft indices (empty when
// hard).
func (f *Flip) SoftCoeffs() []float64 {
	out := make([]float64, len(f.softIdx))
	for i := range f.softIdx {
		out[i] = 1 - 2*sigmoid(f.softW.W.Data[i])
	}
	return out
}

// SoftIndices returns the indices currently in soft mode.
func (f *Flip) SoftIndices() []int { return f.softIdx }

func sigmoid(w float64) float64 { return 1 / (1 + math.Exp(-w)) }

// softForwardValue computes the relaxed output for soft index i with
// pre-activation u.
func (f *Flip) softForwardValue(i int, u float64) float64 {
	s := sigmoid(f.softW.W.Data[i])
	if f.softGated {
		return (1-s)*relu(u) + s*relu(-u)
	}
	return (1 - 2*s) * u
}

func relu(v float64) float64 {
	if v > 0 {
		return v
	}
	return 0
}

// SetOffset sets the additive offset of neuron j (bias-shift variant).
func (f *Flip) SetOffset(j int, v float64) {
	if f.Offsets == nil {
		f.Offsets = make([]float64, f.N)
	}
	f.Offsets[j] = v
}

// forwardRowInto applies the flip to one example, writing into y (same
// length as x; must not alias x when soft indices are active, since those
// re-read the pre-flip value).
func (f *Flip) forwardRowInto(y, x []float64) {
	for i, v := range x {
		y[i] = f.Signs[i] * v
	}
	if f.Offsets != nil {
		for i, o := range f.Offsets {
			y[i] += o
		}
	}
	for i, j := range f.softIdx {
		y[j] = f.softForwardValue(i, x[j])
	}
}

// forwardRow applies the flip to one example in place-free fashion.
func (f *Flip) forwardRow(x []float64) []float64 {
	y := make([]float64, f.N)
	f.forwardRowInto(y, x)
	return y
}

// Forward applies the effective flip (hard signs/offsets plus any soft
// relaxation), recording pre/post values into tr when non-nil.
func (f *Flip) Forward(x []float64, tr *Trace) []float64 {
	checkSize("flip", f.N, len(x))
	y := f.forwardRow(x)
	if tr != nil {
		tr.Pre[f.SiteID] = tensor.VecClone(x)
		tr.Post[f.SiteID] = tensor.VecClone(y)
	}
	return y
}

// ForwardBatch applies the flip to each row.
func (f *Flip) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	// forwardRowInto assigns every output element, so a pooled buffer is safe.
	out := tensor.GetMatrix(x.Rows, f.N)
	for i := 0; i < x.Rows; i++ {
		f.forwardRowInto(out.Row(i), x.Row(i))
	}
	return out
}

// TrainForward is ForwardBatch with input caching.
func (f *Flip) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	f.lastX = x
	// forwardRowInto assigns every output element, so the reused buffer is safe.
	y := ensure(&f.y, x.Rows, f.N)
	for i := 0; i < x.Rows; i++ {
		f.forwardRowInto(y.Row(i), x.Row(i))
	}
	return y
}

func (f *Flip) dropTrainState() { f.lastX, f.y, f.dx = nil, nil, nil }

// Backward returns dX and, in soft mode, accumulates the gradient of the
// raw soft weights. Gated relaxation: y = (1−s)·φ(u) + s·φ(−u) with
// s = σ(w), so ∂y/∂w = (φ(−u) − φ(u))·s(1−s) and
// ∂y/∂u = (1−s)·1[u>0] − s·1[u<0]. Ungated: y = (1−2s)·u, so
// ∂y/∂w = −2u·s(1−s) and ∂y/∂u = 1−2s.
func (f *Flip) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if f.lastX == nil {
		panic("nn: Flip.Backward before TrainForward")
	}
	dx := ensure(&f.dx, dy.Rows, dy.Cols)
	for r := 0; r < dx.Rows; r++ {
		row := dx.Row(r)
		for j, g := range dy.Row(r) {
			row[j] = g * f.Signs[j]
		}
	}
	for i, j := range f.softIdx {
		s := sigmoid(f.softW.W.Data[i])
		ds := s * (1 - s)
		gw := 0.0
		for r := 0; r < dy.Rows; r++ {
			g := dy.At(r, j)
			u := f.lastX.At(r, j)
			var dydu, dydw float64
			if f.softGated {
				dydw = (relu(-u) - relu(u)) * ds
				switch {
				case u > 0:
					dydu = 1 - s
				case u < 0:
					dydu = -s
				}
			} else {
				dydw = -2 * u * ds
				dydu = 1 - 2*s
			}
			dx.Set(r, j, g*dydu)
			gw += g * dydw
		}
		f.softW.G.Data[i] += gw
	}
	return dx
}

// JVP scales value and tangent rows by the local derivative of the flip
// and records the pre-flip Jacobian (the Â^(i) numerator the attack needs)
// into jtr. Constant offsets shift the value but not the tangents.
func (f *Flip) JVP(x []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix) {
	if jtr != nil {
		jtr.PreJ[f.SiteID] = j.Clone()
	}
	y := f.forwardRow(x)
	jy := j.Clone()
	deriv := func(i int) float64 { return f.Signs[i] }
	soft := make(map[int]int, len(f.softIdx))
	for si, idx := range f.softIdx {
		soft[idx] = si
	}
	for i := range x {
		d := deriv(i)
		if si, ok := soft[i]; ok {
			s := sigmoid(f.softW.W.Data[si])
			if f.softGated {
				switch {
				case x[i] > 0:
					d = 1 - s
				case x[i] < 0:
					d = -s
				default:
					d = 0
				}
			} else {
				d = 1 - 2*s
			}
		}
		//lint:ignore floatcmp d is the exact sentinel 1 when the flip is inactive
		if d != 1 {
			row := jy.Row(i)
			for col := range row {
				row[col] *= d
			}
		}
	}
	return y, jy
}

// Params returns the soft parameter when in soft mode.
func (f *Flip) Params() []*Param {
	if f.softW != nil {
		return []*Param{f.softW}
	}
	return nil
}
