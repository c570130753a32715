package nn

import (
	"fmt"
	"math"
	"math/rand"

	"dnnlock/internal/tensor"
)

// Dense is a fully connected affine layer y = W·x + b with W out×in.
type Dense struct {
	In, Out int
	W, B    *Param

	// Training-pass state (see Layer): the cached input and output buffers.
	lastX, y, dx *tensor.Matrix
}

// NewDense constructs a dense layer with zero weights (see InitHe/InitXavier).
func NewDense(in, out int) *Dense {
	return &Dense{
		In:  in,
		Out: out,
		W:   NewParam(fmt.Sprintf("dense_w_%dx%d", out, in), out, in),
		B:   NewParam(fmt.Sprintf("dense_b_%d", out), 1, out),
	}
}

// InitHe fills W with He-normal initialization, appropriate before ReLU.
func (d *Dense) InitHe(rng *rand.Rand) *Dense {
	std := math.Sqrt(2.0 / float64(d.In))
	for i := range d.W.W.Data {
		d.W.W.Data[i] = rng.NormFloat64() * std
	}
	return d
}

// InitXavier fills W with Xavier-normal initialization.
func (d *Dense) InitXavier(rng *rand.Rand) *Dense {
	std := math.Sqrt(2.0 / float64(d.In+d.Out))
	for i := range d.W.W.Data {
		d.W.W.Data[i] = rng.NormFloat64() * std
	}
	return d
}

func (d *Dense) Name() string { return "dense" }

// InSize returns the input dimensionality.
func (d *Dense) InSize() int { return d.In }

// OutSize returns the output dimensionality.
func (d *Dense) OutSize() int { return d.Out }

// Forward computes W·x + b for one example.
func (d *Dense) Forward(x []float64, _ *Trace) []float64 {
	checkSize("dense", d.In, len(x))
	y := tensor.MatVec(d.W.W, x)
	brow := d.B.W.Row(0)
	for i := range y {
		y[i] += brow[i]
	}
	return y
}

// ForwardBatch computes X·Wᵀ + b for a batch via the transpose-free
// blocked kernel (W is stored out×in, so no copy of Wᵀ is ever built).
func (d *Dense) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	checkSize("dense", d.In, x.Cols)
	// forwardBatchInto overwrites dst, so the pooled buffer needs no zeroing.
	out := tensor.GetMatrix(x.Rows, d.Out)
	d.forwardBatchInto(out, x)
	return out
}

// forwardBatchInto writes X·Wᵀ + b into out (x.Rows × Out).
func (d *Dense) forwardBatchInto(out, x *tensor.Matrix) {
	tensor.MatMulABTInto(out, x, d.W.W)
	brow := d.B.W.Row(0)
	for i := 0; i < out.Rows; i++ {
		or := out.Row(i)
		for o, bv := range brow {
			or[o] += bv
		}
	}
}

// TrainForward is ForwardBatch with input caching for Backward.
func (d *Dense) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	checkSize("dense", d.In, x.Cols)
	d.lastX = x
	y := ensure(&d.y, x.Rows, d.Out)
	d.forwardBatchInto(y, x)
	return y
}

// Backward accumulates dW, dB for unfrozen parameters and returns dX.
// dW += dYᵀ·X ; dB += Σ_rows dY ; dX = dY·W — all through the transpose-free
// parallel kernels, which keep the batch-ascending accumulation order of the
// original serial loops.
func (d *Dense) Backward(dy *tensor.Matrix) *tensor.Matrix {
	x := d.lastX
	if x == nil {
		panic("nn: Dense.Backward before TrainForward")
	}
	if !d.W.Frozen {
		tensor.MatMulATBAddInto(d.W.G, dy, x)
	}
	if !d.B.Frozen {
		bg := d.B.G.Row(0)
		for i := 0; i < dy.Rows; i++ {
			for o, g := range dy.Row(i) {
				//lint:ignore floatcmp exact-zero skip: adding a zero gradient term is a bit-exact no-op
				if g == 0 {
					continue
				}
				bg[o] += g
			}
		}
	}
	dx := ensure(&d.dx, dy.Rows, d.In)
	tensor.MatMulInto(dx, dy, d.W.W) // overwrites dst, so the reused buffer needs no zeroing
	return dx
}

func (d *Dense) dropTrainState() { d.lastX, d.y, d.dx = nil, nil, nil }

// JVP propagates the value and tangent: y = Wx+b, Jy = W·J.
func (d *Dense) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	return d.Forward(x, nil), tensor.MatMul(d.W.W, j)
}

// Params returns the weight and bias parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// TokenDense applies a Dense transform independently to each of T tokens:
// the flat input of size T·In is reshaped to T rows, mapped through W,b, and
// flattened back to T·Out. It is the position-wise feed-forward map of the
// V-Transformer.
type TokenDense struct {
	T int
	D *Dense

	// Training-pass buffers (see Layer): the token-major views of the input
	// and output gradient, and the flat output and input gradient.
	tokens, dtok, y, dx *tensor.Matrix
}

// NewTokenDense constructs a per-token dense layer over t tokens.
func NewTokenDense(t, in, out int) *TokenDense {
	return &TokenDense{T: t, D: NewDense(in, out)}
}

// InitHe initializes the shared token weights.
func (td *TokenDense) InitHe(rng *rand.Rand) *TokenDense {
	td.D.InitHe(rng)
	return td
}

// InitXavier initializes the shared token weights.
func (td *TokenDense) InitXavier(rng *rand.Rand) *TokenDense {
	td.D.InitXavier(rng)
	return td
}

func (td *TokenDense) Name() string { return "token_dense" }

// InSize returns T·in.
func (td *TokenDense) InSize() int { return td.T * td.D.In }

// OutSize returns T·out.
func (td *TokenDense) OutSize() int { return td.T * td.D.Out }

// Forward maps each token through the shared dense transform.
func (td *TokenDense) Forward(x []float64, _ *Trace) []float64 {
	checkSize("token_dense", td.InSize(), len(x))
	out := make([]float64, td.OutSize())
	for t := 0; t < td.T; t++ {
		y := td.D.Forward(x[t*td.D.In:(t+1)*td.D.In], nil)
		copy(out[t*td.D.Out:], y)
	}
	return out
}

// ForwardBatch maps a batch row-wise.
func (td *TokenDense) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchViaSingle(td, x)
}

// TrainForward caches the token-expanded batch for Backward.
func (td *TokenDense) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	// Expand batch of flat examples into a (rows·T)×In token batch so the
	// inner Dense caches one matrix.
	tokens := ensure(&td.tokens, x.Rows*td.T, td.D.In)
	for i := 0; i < x.Rows; i++ {
		xr := x.Row(i)
		for t := 0; t < td.T; t++ {
			tokens.SetRow(i*td.T+t, xr[t*td.D.In:(t+1)*td.D.In])
		}
	}
	y := td.D.TrainForward(tokens)
	out := ensure(&td.y, x.Rows, td.OutSize())
	for i := 0; i < x.Rows; i++ {
		or := out.Row(i)
		for t := 0; t < td.T; t++ {
			copy(or[t*td.D.Out:(t+1)*td.D.Out], y.Row(i*td.T+t))
		}
	}
	return out
}

// Backward routes gradients through the shared dense transform.
func (td *TokenDense) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dtok := ensure(&td.dtok, dy.Rows*td.T, td.D.Out)
	for i := 0; i < dy.Rows; i++ {
		dr := dy.Row(i)
		for t := 0; t < td.T; t++ {
			dtok.SetRow(i*td.T+t, dr[t*td.D.Out:(t+1)*td.D.Out])
		}
	}
	dxTok := td.D.Backward(dtok)
	dx := ensure(&td.dx, dy.Rows, td.InSize())
	for i := 0; i < dy.Rows; i++ {
		dr := dx.Row(i)
		for t := 0; t < td.T; t++ {
			copy(dr[t*td.D.In:(t+1)*td.D.In], dxTok.Row(i*td.T+t))
		}
	}
	return dx
}

func (td *TokenDense) dropTrainState() {
	td.tokens, td.dtok, td.y, td.dx = nil, nil, nil, nil
	td.D.dropTrainState()
}

// JVP applies the shared linear map token-wise to value and tangents.
func (td *TokenDense) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	y := td.Forward(x, nil)
	p := j.Cols
	jy := tensor.New(td.OutSize(), p)
	// Each tangent column transforms exactly like a value (the map is linear).
	for t := 0; t < td.T; t++ {
		for o := 0; o < td.D.Out; o++ {
			wrow := td.D.W.W.Row(o)
			dst := jy.Row(t*td.D.Out + o)
			for k, wv := range wrow {
				//lint:ignore floatcmp exact-zero skip: a zero weight contributes nothing to the Jacobian row
				if wv == 0 {
					continue
				}
				src := j.Row(t*td.D.In + k)
				for c := 0; c < p; c++ {
					dst[c] += wv * src[c]
				}
			}
		}
	}
	return y, jy
}

// Params returns the shared token parameters.
func (td *TokenDense) Params() []*Param { return td.D.Params() }
