package nn

import (
	"math"

	"dnnlock/internal/tensor"
)

// MaxPool2D is a channel-wise max pool over CHW-flattened inputs.
type MaxPool2D struct {
	C, InH, InW int
	K, Stride   int
	OutH, OutW  int

	// Training-pass state (see Layer): the flat input index of each output
	// max, and the output buffers.
	lastArg []int
	y, dx   *tensor.Matrix
}

// NewMaxPool2D constructs a k×k max pool with the given stride.
func NewMaxPool2D(c, inH, inW, k, stride int) *MaxPool2D {
	return &MaxPool2D{
		C: c, InH: inH, InW: inW, K: k, Stride: stride,
		OutH: (inH-k)/stride + 1, OutW: (inW-k)/stride + 1,
	}
}

func (m *MaxPool2D) Name() string { return "maxpool2d" }

// InSize returns C·H·W.
func (m *MaxPool2D) InSize() int { return m.C * m.InH * m.InW }

// OutSize returns C·OH·OW.
func (m *MaxPool2D) OutSize() int { return m.C * m.OutH * m.OutW }

// forwardArgInto pools one example into y (length OutSize), recording the
// argmax input index per output in arg when arg is non-nil. The window scan
// keeps the (ky, kx) order and strict > comparison of the original gather,
// so ties resolve to the same index; only the index arithmetic is hoisted.
func (m *MaxPool2D) forwardArgInto(x, y []float64, arg []int) {
	o := 0
	for c := 0; c < m.C; c++ {
		inBase := c * m.InH * m.InW
		for oy := 0; oy < m.OutH; oy++ {
			rowBase := inBase + oy*m.Stride*m.InW
			if m.K == 2 {
				// 2×2 window unrolled in the same (ky, kx) scan order, so
				// ties resolve to the same first-wins index.
				for ox := 0; ox < m.OutW; ox++ {
					winBase := rowBase + ox*m.Stride
					best, bestIdx := math.Inf(-1), -1
					if v := x[winBase]; v > best {
						best, bestIdx = v, winBase
					}
					if v := x[winBase+1]; v > best {
						best, bestIdx = v, winBase+1
					}
					if v := x[winBase+m.InW]; v > best {
						best, bestIdx = v, winBase+m.InW
					}
					if v := x[winBase+m.InW+1]; v > best {
						best, bestIdx = v, winBase+m.InW+1
					}
					y[o] = best
					if arg != nil {
						arg[o] = bestIdx
					}
					o++
				}
				continue
			}
			for ox := 0; ox < m.OutW; ox++ {
				winBase := rowBase + ox*m.Stride
				best := math.Inf(-1)
				bestIdx := -1
				for ky := 0; ky < m.K; ky++ {
					idx := winBase + ky*m.InW
					for kx := 0; kx < m.K; kx++ {
						if v := x[idx]; v > best {
							best = v
							bestIdx = idx
						}
						idx++
					}
				}
				y[o] = best
				if arg != nil {
					arg[o] = bestIdx
				}
				o++
			}
		}
	}
}

// forwardArg pools one example and reports the argmax input index per output.
func (m *MaxPool2D) forwardArg(x []float64) (y []float64, arg []int) {
	y = make([]float64, m.OutSize())
	arg = make([]int, m.OutSize())
	m.forwardArgInto(x, y, arg)
	return y, arg
}

// Forward pools one example. The argmax indices are not materialized.
func (m *MaxPool2D) Forward(x []float64, _ *Trace) []float64 {
	checkSize("maxpool2d", m.InSize(), len(x))
	y := make([]float64, m.OutSize())
	m.forwardArgInto(x, y, nil)
	return y
}

// ForwardBatch pools each row, writing straight into the output rows.
func (m *MaxPool2D) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	// forwardArgInto assigns every output element, so a pooled buffer is safe.
	out := tensor.GetMatrix(x.Rows, m.OutSize())
	for r := 0; r < x.Rows; r++ {
		m.forwardArgInto(x.Row(r), out.Row(r), nil)
	}
	return out
}

// TrainForward pools and caches argmax indices for Backward. The index
// cache is reused across batches once grown to the largest batch seen.
func (m *MaxPool2D) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	need := x.Rows * m.OutSize()
	if cap(m.lastArg) < need {
		m.lastArg = make([]int, need)
	}
	m.lastArg = m.lastArg[:need]
	// forwardArgInto assigns every output element, so the reused buffer is safe.
	out := ensure(&m.y, x.Rows, m.OutSize())
	for r := 0; r < x.Rows; r++ {
		m.forwardArgInto(x.Row(r), out.Row(r), m.lastArg[r*m.OutSize():(r+1)*m.OutSize()])
	}
	return out
}

// Backward routes each output gradient to its argmax input.
func (m *MaxPool2D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if m.lastArg == nil {
		panic("nn: MaxPool2D.Backward before TrainForward")
	}
	dx := ensure(&m.dx, dy.Rows, m.InSize())
	clear(dx.Data)
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		args := m.lastArg[r*m.OutSize() : (r+1)*m.OutSize()]
		for o, g := range dyr {
			dxr[args[o]] += g
		}
	}
	return dx
}

func (m *MaxPool2D) dropTrainState() { m.lastArg, m.y, m.dx = nil, nil, nil }

// JVP selects tangent rows by the value path's argmax (exact inside a linear
// region, where the argmax is locally constant).
func (m *MaxPool2D) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	y, arg := m.forwardArg(x)
	jy := tensor.New(m.OutSize(), j.Cols)
	for o, idx := range arg {
		jy.SetRow(o, j.Row(idx))
	}
	return y, jy
}

// Params returns nil.
func (m *MaxPool2D) Params() []*Param { return nil }

// GlobalAvgPool averages each channel's spatial plane into one scalar.
type GlobalAvgPool struct {
	C, H, W int

	y, dx *tensor.Matrix // training-pass buffers (see Layer)
}

// NewGlobalAvgPool constructs the pool.
func NewGlobalAvgPool(c, h, w int) *GlobalAvgPool { return &GlobalAvgPool{C: c, H: h, W: w} }

func (g *GlobalAvgPool) Name() string { return "global_avg_pool" }

// InSize returns C·H·W.
func (g *GlobalAvgPool) InSize() int { return g.C * g.H * g.W }

// OutSize returns C.
func (g *GlobalAvgPool) OutSize() int { return g.C }

// Forward averages each channel.
func (g *GlobalAvgPool) Forward(x []float64, _ *Trace) []float64 {
	checkSize("global_avg_pool", g.InSize(), len(x))
	y := make([]float64, g.C)
	g.forwardInto(x, y)
	return y
}

// forwardInto averages each channel of x into y (length C).
func (g *GlobalAvgPool) forwardInto(x, y []float64) {
	plane := g.H * g.W
	for c := 0; c < g.C; c++ {
		s := 0.0
		for i := c * plane; i < (c+1)*plane; i++ {
			s += x[i]
		}
		y[c] = s / float64(plane)
	}
}

// ForwardBatch averages each row's channels.
func (g *GlobalAvgPool) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchViaSingle(g, x)
}

// TrainForward is ForwardBatch (the map is linear; no cache needed).
func (g *GlobalAvgPool) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	checkSize("global_avg_pool", g.InSize(), x.Cols)
	y := ensure(&g.y, x.Rows, g.C)
	for r := 0; r < x.Rows; r++ {
		g.forwardInto(x.Row(r), y.Row(r))
	}
	return y
}

func (g *GlobalAvgPool) dropTrainState() { g.y, g.dx = nil, nil }

// Backward spreads each channel gradient evenly over its plane.
func (g *GlobalAvgPool) Backward(dy *tensor.Matrix) *tensor.Matrix {
	plane := g.H * g.W
	inv := 1 / float64(plane)
	// Every element of dx is assigned below, so the reused buffer's
	// stale contents never show through.
	dx := ensure(&g.dx, dy.Rows, g.InSize())
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for c := 0; c < g.C; c++ {
			gv := dyr[c] * inv
			for i := c * plane; i < (c+1)*plane; i++ {
				dxr[i] = gv
			}
		}
	}
	return dx
}

// JVP averages tangent rows channel-wise.
func (g *GlobalAvgPool) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	y := g.Forward(x, nil)
	plane := g.H * g.W
	inv := 1 / float64(plane)
	jy := tensor.New(g.C, j.Cols)
	for c := 0; c < g.C; c++ {
		dst := jy.Row(c)
		for i := c * plane; i < (c+1)*plane; i++ {
			src := j.Row(i)
			for t := range dst {
				dst[t] += src[t] * inv
			}
		}
	}
	return y, jy
}

// Params returns nil.
func (g *GlobalAvgPool) Params() []*Param { return nil }

// MeanTokens averages T tokens of width D into a single D-vector (the
// V-Transformer's classification head input).
type MeanTokens struct {
	T, D int

	y, dx *tensor.Matrix // training-pass buffers (see Layer)
}

// NewMeanTokens constructs the token average.
func NewMeanTokens(t, d int) *MeanTokens { return &MeanTokens{T: t, D: d} }

func (m *MeanTokens) Name() string { return "mean_tokens" }

// InSize returns T·D.
func (m *MeanTokens) InSize() int { return m.T * m.D }

// OutSize returns D.
func (m *MeanTokens) OutSize() int { return m.D }

// Forward averages tokens.
func (m *MeanTokens) Forward(x []float64, _ *Trace) []float64 {
	checkSize("mean_tokens", m.InSize(), len(x))
	y := make([]float64, m.D)
	m.forwardInto(x, y)
	return y
}

// forwardInto averages the tokens of x into the zeroed y (length D).
func (m *MeanTokens) forwardInto(x, y []float64) {
	for t := 0; t < m.T; t++ {
		for d := 0; d < m.D; d++ {
			y[d] += x[t*m.D+d]
		}
	}
	inv := 1 / float64(m.T)
	for d := range y {
		y[d] *= inv
	}
}

// ForwardBatch averages each row's tokens.
func (m *MeanTokens) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchViaSingle(m, x)
}

// TrainForward is ForwardBatch (linear map).
func (m *MeanTokens) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	checkSize("mean_tokens", m.InSize(), x.Cols)
	y := ensure(&m.y, x.Rows, m.D)
	clear(y.Data)
	for r := 0; r < x.Rows; r++ {
		m.forwardInto(x.Row(r), y.Row(r))
	}
	return y
}

func (m *MeanTokens) dropTrainState() { m.y, m.dx = nil, nil }

// Backward spreads gradients evenly over tokens.
func (m *MeanTokens) Backward(dy *tensor.Matrix) *tensor.Matrix {
	inv := 1 / float64(m.T)
	// Every element of dx is assigned below, so the reused buffer's stale
	// contents never show through.
	dx := ensure(&m.dx, dy.Rows, m.InSize())
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for t := 0; t < m.T; t++ {
			for d := 0; d < m.D; d++ {
				dxr[t*m.D+d] = dyr[d] * inv
			}
		}
	}
	return dx
}

// JVP averages tangent rows token-wise.
func (m *MeanTokens) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	y := m.Forward(x, nil)
	inv := 1 / float64(m.T)
	jy := tensor.New(m.D, j.Cols)
	for t := 0; t < m.T; t++ {
		for d := 0; d < m.D; d++ {
			src := j.Row(t*m.D + d)
			dst := jy.Row(d)
			for c := range dst {
				dst[c] += src[c] * inv
			}
		}
	}
	return y, jy
}

// Params returns nil.
func (m *MeanTokens) Params() []*Param { return nil }
