package nn

import (
	"dnnlock/internal/tensor"
)

// AvgPool2D is a channel-wise average pool over CHW-flattened inputs (the
// subsampling layer of the original LeNet-5).
type AvgPool2D struct {
	C, InH, InW int
	K, Stride   int
	OutH, OutW  int

	y, dx *tensor.Matrix // training-pass buffers (see Layer)
}

// NewAvgPool2D constructs a k×k average pool with the given stride.
func NewAvgPool2D(c, inH, inW, k, stride int) *AvgPool2D {
	return &AvgPool2D{
		C: c, InH: inH, InW: inW, K: k, Stride: stride,
		OutH: (inH-k)/stride + 1, OutW: (inW-k)/stride + 1,
	}
}

func (a *AvgPool2D) Name() string { return "avgpool2d" }

// InSize returns C·H·W.
func (a *AvgPool2D) InSize() int { return a.C * a.InH * a.InW }

// OutSize returns C·OH·OW.
func (a *AvgPool2D) OutSize() int { return a.C * a.OutH * a.OutW }

// Forward pools one example.
func (a *AvgPool2D) Forward(y, x []float64, _ *Trace) {
	checkSize("avgpool2d", a.InSize(), len(x))
	inv := 1 / float64(a.K*a.K)
	for c := 0; c < a.C; c++ {
		inBase := c * a.InH * a.InW
		outBase := c * a.OutH * a.OutW
		for oy := 0; oy < a.OutH; oy++ {
			for ox := 0; ox < a.OutW; ox++ {
				s := 0.0
				for ky := 0; ky < a.K; ky++ {
					iy := oy*a.Stride + ky
					for kx := 0; kx < a.K; kx++ {
						s += x[inBase+iy*a.InW+ox*a.Stride+kx]
					}
				}
				y[outBase+oy*a.OutW+ox] = s * inv
			}
		}
	}
}

// ForwardBatch pools each row.
func (a *AvgPool2D) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchViaSingle(a, x)
}

// TrainForward is ForwardBatch (linear map; no cache needed).
func (a *AvgPool2D) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	y := ensure(&a.y, x.Rows, a.OutSize())
	for r := 0; r < x.Rows; r++ {
		a.Forward(y.Row(r), x.Row(r), nil)
	}
	return y
}

func (a *AvgPool2D) dropTrainState() { a.y, a.dx = nil, nil }

// Backward spreads each output gradient evenly over its window.
func (a *AvgPool2D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	dx := ensure(&a.dx, dy.Rows, a.InSize())
	clear(dx.Data)
	inv := 1 / float64(a.K*a.K)
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for c := 0; c < a.C; c++ {
			inBase := c * a.InH * a.InW
			outBase := c * a.OutH * a.OutW
			for oy := 0; oy < a.OutH; oy++ {
				for ox := 0; ox < a.OutW; ox++ {
					g := dyr[outBase+oy*a.OutW+ox] * inv
					for ky := 0; ky < a.K; ky++ {
						iy := oy*a.Stride + ky
						for kx := 0; kx < a.K; kx++ {
							dxr[inBase+iy*a.InW+ox*a.Stride+kx] += g
						}
					}
				}
			}
		}
	}
	return dx
}

// JVP averages tangent rows window-wise (the map is linear).
func (a *AvgPool2D) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	y := make([]float64, a.OutSize())
	a.Forward(y, x, nil)
	jy := tensor.GetMatrixZero(a.OutSize(), j.Cols)
	inv := 1 / float64(a.K*a.K)
	for c := 0; c < a.C; c++ {
		inBase := c * a.InH * a.InW
		outBase := c * a.OutH * a.OutW
		for oy := 0; oy < a.OutH; oy++ {
			for ox := 0; ox < a.OutW; ox++ {
				dst := jy.Row(outBase + oy*a.OutW + ox)
				for ky := 0; ky < a.K; ky++ {
					iy := oy*a.Stride + ky
					for kx := 0; kx < a.K; kx++ {
						src := j.Row(inBase + iy*a.InW + ox*a.Stride + kx)
						for t := range dst {
							dst[t] += src[t] * inv
						}
					}
				}
			}
		}
	}
	tensor.PutMatrix(j)
	return y, jy
}

// Params returns nil.
func (a *AvgPool2D) Params() []*Param { return nil }
