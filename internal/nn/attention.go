package nn

import (
	"math"
	"math/rand"

	"dnnlock/internal/tensor"
)

// AttentionReLU is a single-head self-attention block with the ReLU score
// map of the paper's "ReLU variant" of ViT: instead of softmax, attention
// scores are S = φ(Q·Kᵀ/√Dh)/T, keeping the whole block piecewise
// polynomial and ReLU-gated so the attack's critical-point machinery
// applies. Input/output are T·D flat token stacks.
//
// All matrix products run through the transpose-free blocked kernels
// (MatMulABTInto/MatMulATBInto), so no Kᵀ/Vᵀ/Xᵀ copies are ever built.
// Forward and JVP stage intermediates in the tensor workspace pool; the
// training passes keep them in per-row buffers the layer owns.
type AttentionReLU struct {
	T, D, Dh       int
	Wq, Wk, Wv, Wo *Param

	// Training-pass state (see Layer): the cached input, per-row
	// intermediates grown to the largest batch seen, the row-major masks of
	// every row, output buffers, per-row scratch, and reusable row views.
	lastX                     *tensor.Matrix
	cQ, cK, cV, cS, cO        []*tensor.Matrix
	cMask                     []bool
	y, dx                     *tensor.Matrix
	u, do, ds, du, dv, dq, dk *tensor.Matrix
	xv, yv                    tensor.Matrix
}

// NewAttentionReLU constructs an attention block over t tokens of width d
// with head width dh.
func NewAttentionReLU(t, d, dh int) *AttentionReLU {
	return &AttentionReLU{
		T: t, D: d, Dh: dh,
		Wq: NewParam("attn_wq", d, dh),
		Wk: NewParam("attn_wk", d, dh),
		Wv: NewParam("attn_wv", d, dh),
		Wo: NewParam("attn_wo", dh, d),
	}
}

// InitXavier initializes all projection matrices.
func (a *AttentionReLU) InitXavier(rng *rand.Rand) *AttentionReLU {
	for _, p := range []*Param{a.Wq, a.Wk, a.Wv, a.Wo} {
		fanIn, fanOut := p.W.Rows, p.W.Cols
		std := math.Sqrt(2.0 / float64(fanIn+fanOut))
		for i := range p.W.Data {
			p.W.Data[i] = rng.NormFloat64() * std
		}
	}
	return a
}

func (a *AttentionReLU) Name() string { return "attention_relu" }

// InSize returns T·D.
func (a *AttentionReLU) InSize() int { return a.T * a.D }

// OutSize returns T·D.
func (a *AttentionReLU) OutSize() int { return a.T * a.D }

func (a *AttentionReLU) scaleA() float64 { return 1 / math.Sqrt(float64(a.Dh)) }
func (a *AttentionReLU) scaleB() float64 { return 1 / float64(a.T) }

// forwardOne computes the block for one flat example x into y and returns
// the intermediates JVP reuses; a non-nil mask receives the scores'
// activity pattern. x and y are staged through pooled T×D matrices, so a
// steady-state call allocates nothing, and the copies leave every value
// bit-identical. The returned matrices come from the workspace pool — the
// caller releases them with tensor.PutMatrix.
func (a *AttentionReLU) forwardOne(y, x []float64, mask []bool) (q, k, v, s, o *tensor.Matrix) {
	xm := tensor.GetMatrix(a.T, a.D)
	copy(xm.Data, x)
	ym := tensor.GetMatrix(a.T, a.D)
	q = tensor.GetMatrix(a.T, a.Dh)
	k = tensor.GetMatrix(a.T, a.Dh)
	v = tensor.GetMatrix(a.T, a.Dh)
	u := tensor.GetMatrix(a.T, a.T)
	s = tensor.GetMatrix(a.T, a.T)
	o = tensor.GetMatrix(a.T, a.Dh)
	a.forwardInto(xm, q, k, v, u, s, o, ym, mask)
	copy(y, ym.Data)
	tensor.PutMatrix(xm, ym, u)
	return q, k, v, s, o
}

// forwardInto computes the block for one example into caller buffers: the
// projections q, k, v, the scores u (scratch) and s = φ(u)/T, o = S·V, and
// the output ym; every element is assigned. A non-nil mask receives the
// scores' activity pattern.
func (a *AttentionReLU) forwardInto(xm, q, k, v, u, s, o, ym *tensor.Matrix, mask []bool) {
	tensor.MatMulInto(q, xm, a.Wq.W)
	tensor.MatMulInto(k, xm, a.Wk.W)
	tensor.MatMulInto(v, xm, a.Wv.W)
	tensor.MatMulABTInto(u, q, k) // U = Q·Kᵀ
	u.ScaleInPlace(a.scaleA())
	b := a.scaleB()
	for i, uv := range u.Data {
		if uv > 0 {
			s.Data[i] = uv * b
		} else {
			s.Data[i] = 0
		}
		if mask != nil {
			mask[i] = uv > 0
		}
	}
	tensor.MatMulInto(o, s, v)
	tensor.MatMulInto(ym, o, a.Wo.W)
}

// Forward computes attention for one flat example; only JVP needs the
// activity mask.
func (a *AttentionReLU) Forward(y, x []float64, _ *Trace) {
	checkSize("attention_relu", a.InSize(), len(x))
	q, k, v, s, o := a.forwardOne(y, x, nil)
	tensor.PutMatrix(q, k, v, s, o)
}

// ForwardBatch maps each row.
func (a *AttentionReLU) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchViaSingle(a, x)
}

// ensureRows grows the per-row training intermediates to n rows.
func (a *AttentionReLU) ensureRows(n int) {
	for len(a.cQ) < n {
		a.cQ = append(a.cQ, tensor.New(a.T, a.Dh))
		a.cK = append(a.cK, tensor.New(a.T, a.Dh))
		a.cV = append(a.cV, tensor.New(a.T, a.Dh))
		a.cS = append(a.cS, tensor.New(a.T, a.T))
		a.cO = append(a.cO, tensor.New(a.T, a.Dh))
	}
	if len(a.cMask) < n*a.T*a.T {
		a.cMask = make([]bool, n*a.T*a.T)
	}
}

// rowView points the reusable header m at one row of x as a rows×cols
// matrix, so per-row views cost no allocation.
func rowView(m *tensor.Matrix, x []float64, rows, cols int) *tensor.Matrix {
	m.Rows, m.Cols, m.Data = rows, cols, x
	return m
}

// TrainForward runs the batch while caching all per-example intermediates.
func (a *AttentionReLU) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	checkSize("attention_relu", a.InSize(), x.Cols)
	n := x.Rows
	a.lastX = x
	a.ensureRows(n)
	y := ensure(&a.y, n, a.OutSize())
	u := ensure(&a.u, a.T, a.T)
	tt := a.T * a.T
	for r := 0; r < n; r++ {
		a.forwardInto(rowView(&a.xv, x.Row(r), a.T, a.D),
			a.cQ[r], a.cK[r], a.cV[r], u, a.cS[r], a.cO[r],
			rowView(&a.yv, y.Row(r), a.T, a.D), a.cMask[r*tt:(r+1)*tt])
	}
	return y
}

func (a *AttentionReLU) dropTrainState() {
	a.lastX, a.y, a.dx = nil, nil, nil
	a.cQ, a.cK, a.cV, a.cS, a.cO, a.cMask = nil, nil, nil, nil, nil, nil
	a.u, a.do, a.ds, a.du, a.dv, a.dq, a.dk = nil, nil, nil, nil, nil, nil, nil
	a.xv, a.yv = tensor.Matrix{}, tensor.Matrix{}
}

// Backward propagates gradients through the attention algebra:
// dO = dY·Woᵀ, dS = dO·Vᵀ, dU = 1[U>0]∘dS·b, dQ = dU·K·a, dK = dUᵀ·Q·a,
// dX = dQ·Wqᵀ + dK·Wkᵀ + dV·Wvᵀ. The projection gradients accumulate only
// for unfrozen weights.
func (a *AttentionReLU) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if a.lastX == nil {
		panic("nn: AttentionReLU.Backward before TrainForward")
	}
	sa, sb := a.scaleA(), a.scaleB()
	dx := ensure(&a.dx, dy.Rows, a.InSize())
	do := ensure(&a.do, a.T, a.Dh)
	ds := ensure(&a.ds, a.T, a.T)
	du := ensure(&a.du, a.T, a.T)
	dv := ensure(&a.dv, a.T, a.Dh)
	dq := ensure(&a.dq, a.T, a.Dh)
	dk := ensure(&a.dk, a.T, a.Dh)
	tt := a.T * a.T
	for r := 0; r < dy.Rows; r++ {
		// xv and yv are free during Backward: borrow them as the row views
		// of the cached input and the incoming gradient.
		dym := rowView(&a.yv, dy.Row(r), a.T, a.D)
		q, k, v, s, o := a.cQ[r], a.cK[r], a.cV[r], a.cS[r], a.cO[r]
		mask := a.cMask[r*tt : (r+1)*tt]

		tensor.MatMulABTInto(do, dym, a.Wo.W) // dO = dY·Woᵀ
		if !a.Wo.Frozen {
			tensor.MatMulATBAddInto(a.Wo.G, o, dym)
		}

		tensor.MatMulABTInto(ds, do, v) // dS = dO·Vᵀ
		tensor.MatMulATBInto(dv, s, do) // dV = Sᵀ·dO

		for i := range ds.Data {
			if mask[i] {
				du.Data[i] = ds.Data[i] * sb
			} else {
				du.Data[i] = 0
			}
		}
		tensor.MatMulInto(dq, du, k)
		dq.ScaleInPlace(sa)
		tensor.MatMulATBInto(dk, du, q) // dK = dUᵀ·Q
		dk.ScaleInPlace(sa)

		xm := rowView(&a.xv, a.lastX.Row(r), a.T, a.D)
		if !a.Wq.Frozen {
			tensor.MatMulATBAddInto(a.Wq.G, xm, dq) // Wq.G += Xᵀ·dQ
		}
		if !a.Wk.Frozen {
			tensor.MatMulATBAddInto(a.Wk.G, xm, dk)
		}
		if !a.Wv.Frozen {
			tensor.MatMulATBAddInto(a.Wv.G, xm, dv)
		}

		dxm := rowView(&a.xv, dx.Row(r), a.T, a.D)
		tensor.MatMulABTInto(dxm, dq, a.Wq.W) // dX = dQ·Wqᵀ + dK·Wkᵀ + dV·Wvᵀ
		tensor.MatMulABTAddInto(dxm, dk, a.Wk.W)
		tensor.MatMulABTAddInto(dxm, dv, a.Wv.W)
	}
	return dx
}

// JVP propagates each tangent column through the bilinear attention map by
// the product rule: dU = (dQ·Kᵀ + Q·dKᵀ)·a, dS = 1[U>0]∘dU·b,
// dO = dS·V + S·dV, dY = dO·Wo. Tangents are staged through a pooled
// transpose so every inner product streams contiguous rows.
func (a *AttentionReLU) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	y := make([]float64, a.OutSize())
	mask := make([]bool, a.T*a.T)
	q, k, v, s, o := a.forwardOne(y, x, mask)
	sa, sb := a.scaleA(), a.scaleB()
	p := j.Cols
	jT := tensor.GetMatrix(p, a.InSize())
	j.TransposeInto(jT)
	tensor.PutMatrix(j)
	jyT := tensor.GetMatrix(p, a.OutSize())
	dq := tensor.GetMatrix(a.T, a.Dh)
	dk := tensor.GetMatrix(a.T, a.Dh)
	dv := tensor.GetMatrix(a.T, a.Dh)
	du := tensor.GetMatrix(a.T, a.T)
	dsm := tensor.GetMatrix(a.T, a.T)
	do := tensor.GetMatrix(a.T, a.Dh)
	var dxv, dyv tensor.Matrix // per-column views of the staged tangents
	for t := 0; t < p; t++ {
		dxm := rowView(&dxv, jT.Row(t), a.T, a.D)
		tensor.MatMulInto(dq, dxm, a.Wq.W)
		tensor.MatMulInto(dk, dxm, a.Wk.W)
		tensor.MatMulInto(dv, dxm, a.Wv.W)
		tensor.MatMulABTInto(du, dq, k)    // dQ·Kᵀ
		tensor.MatMulABTAddInto(du, q, dk) // + Q·dKᵀ
		du.ScaleInPlace(sa)
		for i := range du.Data {
			if mask[i] {
				dsm.Data[i] = du.Data[i] * sb
			} else {
				dsm.Data[i] = 0
			}
		}
		tensor.MatMulInto(do, dsm, v)
		tensor.MatMulAddInto(do, s, dv)
		dym := rowView(&dyv, jyT.Row(t), a.T, a.D)
		tensor.MatMulInto(dym, do, a.Wo.W)
	}
	jy := tensor.GetMatrix(a.OutSize(), p)
	jyT.TransposeInto(jy)
	tensor.PutMatrix(q, k, v, s, o, jT, jyT, dq, dk, dv, du, dsm, do)
	return y, jy
}

// Params returns the four projection parameters.
func (a *AttentionReLU) Params() []*Param { return []*Param{a.Wq, a.Wk, a.Wv, a.Wo} }
