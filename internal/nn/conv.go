package nn

import (
	"fmt"
	"math"
	"math/rand"

	"dnnlock/internal/tensor"
)

// Conv2D is a 2-D convolution over CHW-flattened inputs.
//
// The flat input vector holds channels-major data: index c·H·W + y·W + x.
// Weights are stored as an F×(C·KH·KW) matrix so one output activation is a
// dot product between a filter row and an im2col patch.
type Conv2D struct {
	InC, InH, InW int
	OutC          int
	KH, KW        int
	Stride, Pad   int
	OutH, OutW    int
	W, B          *Param

	// Training-pass state (see Layer): the cached input and output buffers.
	lastX, y, dx *tensor.Matrix
}

// NewConv2D constructs a convolution layer and computes its output geometry.
func NewConv2D(inC, inH, inW, outC, k, stride, pad int) *Conv2D {
	outH := (inH+2*pad-k)/stride + 1
	outW := (inW+2*pad-k)/stride + 1
	if outH <= 0 || outW <= 0 {
		panic(fmt.Sprintf("nn: conv output %dx%d is empty", outH, outW))
	}
	return &Conv2D{
		InC: inC, InH: inH, InW: inW,
		OutC: outC, KH: k, KW: k, Stride: stride, Pad: pad,
		OutH: outH, OutW: outW,
		W: NewParam("conv_w", outC, inC*k*k),
		B: NewParam("conv_b", 1, outC),
	}
}

// InitHe fills the kernels with He-normal initialization.
func (c *Conv2D) InitHe(rng *rand.Rand) *Conv2D {
	std := math.Sqrt(2.0 / float64(c.InC*c.KH*c.KW))
	for i := range c.W.W.Data {
		c.W.W.Data[i] = rng.NormFloat64() * std
	}
	return c
}

func (c *Conv2D) Name() string { return "conv2d" }

// InSize returns C·H·W.
func (c *Conv2D) InSize() int { return c.InC * c.InH * c.InW }

// OutSize returns F·OH·OW.
func (c *Conv2D) OutSize() int { return c.OutC * c.OutH * c.OutW }

// clipRange returns the sub-range of kernel offsets [lo, hi) whose taps
// land inside an axis of extent `in` when the window starts at i0.
func clipRange(i0, k, in int) (lo, hi int) {
	lo, hi = 0, k
	if i0 < 0 {
		lo = -i0
	}
	if i0+k > in {
		hi = in - i0
	}
	return lo, hi
}

// forwardInto convolves a single flat example into out (length OutSize);
// bias is optional so the JVP path can reuse this as a pure linear map.
//
// The filter dot product runs directly over the input rows in the same
// (channel, ky, kx) order the im2col gather would produce, so the result
// is bit-identical to Dot(filter, patch) while skipping the gather's
// stores entirely. Border positions (only reachable with Pad > 0) clip the
// kernel range to the in-bounds taps: a padding tap's product is an exact
// ±0, and adding ±0 never moves an accumulator that is not itself -0 —
// which a left-to-right sum starting at +0 can never be (IEEE 754
// round-to-nearest returns +0 for every exact cancellation).
func (c *Conv2D) forwardInto(x, out []float64, withBias bool) {
	if c.Pad == 0 {
		// Every window is in-bounds by construction, so the whole image can
		// run filter-major: filter rows are sliced once per block instead of
		// once per output pixel, and each plane is written sequentially.
		c.forwardIntoNoPad(x, out, withBias)
		return
	}
	brow := c.B.W.Row(0)
	plane := c.OutH * c.OutW
	chStride := c.InH * c.InW
	for oy := 0; oy < c.OutH; oy++ {
		iy0 := oy*c.Stride - c.Pad
		for ox := 0; ox < c.OutW; ox++ {
			ix0 := ox*c.Stride - c.Pad
			if iy0 >= 0 && ix0 >= 0 && iy0+c.KH <= c.InH && ix0+c.KW <= c.InW {
				// Filters go four at a time so each input window load feeds
				// four accumulators; every accumulator still sums its own
				// products in (channel, ky, kx) order, so each output matches
				// the one-filter-at-a-time result bit for bit.
				base := oy*c.OutW + ox
				f := 0
				for ; f+4 <= c.OutC; f += 4 {
					w0 := c.W.W.Row(f)
					w1 := c.W.W.Row(f + 1)
					w2 := c.W.W.Row(f + 2)
					w3 := c.W.W.Row(f + 3)
					var s0, s1, s2, s3 float64
					idx := 0
					for ch := 0; ch < c.InC; ch++ {
						rowBase := ch*chStride + iy0*c.InW + ix0
						if c.KW == 3 {
							for ky := 0; ky < c.KH; ky++ {
								xw := x[rowBase : rowBase+3]
								a0 := w0[idx : idx+3]
								a1 := w1[idx : idx+3]
								a2 := w2[idx : idx+3]
								a3 := w3[idx : idx+3]
								s0 += xw[0] * a0[0]
								s0 += xw[1] * a0[1]
								s0 += xw[2] * a0[2]
								s1 += xw[0] * a1[0]
								s1 += xw[1] * a1[1]
								s1 += xw[2] * a1[2]
								s2 += xw[0] * a2[0]
								s2 += xw[1] * a2[1]
								s2 += xw[2] * a2[2]
								s3 += xw[0] * a3[0]
								s3 += xw[1] * a3[1]
								s3 += xw[2] * a3[2]
								idx += 3
								rowBase += c.InW
							}
							continue
						}
						if c.KW == 5 {
							for ky := 0; ky < c.KH; ky++ {
								xw := x[rowBase : rowBase+5]
								a0 := w0[idx : idx+5]
								a1 := w1[idx : idx+5]
								a2 := w2[idx : idx+5]
								a3 := w3[idx : idx+5]
								s0 += xw[0] * a0[0]
								s0 += xw[1] * a0[1]
								s0 += xw[2] * a0[2]
								s0 += xw[3] * a0[3]
								s0 += xw[4] * a0[4]
								s1 += xw[0] * a1[0]
								s1 += xw[1] * a1[1]
								s1 += xw[2] * a1[2]
								s1 += xw[3] * a1[3]
								s1 += xw[4] * a1[4]
								s2 += xw[0] * a2[0]
								s2 += xw[1] * a2[1]
								s2 += xw[2] * a2[2]
								s2 += xw[3] * a2[3]
								s2 += xw[4] * a2[4]
								s3 += xw[0] * a3[0]
								s3 += xw[1] * a3[1]
								s3 += xw[2] * a3[2]
								s3 += xw[3] * a3[3]
								s3 += xw[4] * a3[4]
								idx += 5
								rowBase += c.InW
							}
							continue
						}
						for ky := 0; ky < c.KH; ky++ {
							xw := x[rowBase : rowBase+c.KW]
							a0 := w0[idx : idx+c.KW]
							a1 := w1[idx : idx+c.KW]
							a2 := w2[idx : idx+c.KW]
							a3 := w3[idx : idx+c.KW]
							for kx, xv := range xw {
								s0 += xv * a0[kx]
								s1 += xv * a1[kx]
								s2 += xv * a2[kx]
								s3 += xv * a3[kx]
							}
							idx += c.KW
							rowBase += c.InW
						}
					}
					if withBias {
						s0 += brow[f]
						s1 += brow[f+1]
						s2 += brow[f+2]
						s3 += brow[f+3]
					}
					out[f*plane+base] = s0
					out[(f+1)*plane+base] = s1
					out[(f+2)*plane+base] = s2
					out[(f+3)*plane+base] = s3
				}
				for ; f < c.OutC; f++ {
					wr := c.W.W.Row(f)
					var s float64
					idx := 0
					for ch := 0; ch < c.InC; ch++ {
						rowBase := ch*chStride + iy0*c.InW + ix0
						switch c.KW {
						case 3:
							for ky := 0; ky < c.KH; ky++ {
								xr := x[rowBase : rowBase+3]
								wrow := wr[idx : idx+3]
								s += xr[0] * wrow[0]
								s += xr[1] * wrow[1]
								s += xr[2] * wrow[2]
								idx += 3
								rowBase += c.InW
							}
						case 5:
							for ky := 0; ky < c.KH; ky++ {
								xr := x[rowBase : rowBase+5]
								wrow := wr[idx : idx+5]
								s += xr[0] * wrow[0]
								s += xr[1] * wrow[1]
								s += xr[2] * wrow[2]
								s += xr[3] * wrow[3]
								s += xr[4] * wrow[4]
								idx += 5
								rowBase += c.InW
							}
						default:
							for ky := 0; ky < c.KH; ky++ {
								xr := x[rowBase : rowBase+c.KW]
								wrow := wr[idx : idx+c.KW]
								for kx, xv := range xr {
									s += xv * wrow[kx]
								}
								idx += c.KW
								rowBase += c.InW
							}
						}
					}
					if withBias {
						s += brow[f]
					}
					out[f*plane+oy*c.OutW+ox] = s
				}
				continue
			}
			kyLo, kyHi := clipRange(iy0, c.KH, c.InH)
			kxLo, kxHi := clipRange(ix0, c.KW, c.InW)
			base := oy*c.OutW + ox
			f := 0
			for ; f+4 <= c.OutC; f += 4 {
				w0 := c.W.W.Row(f)
				w1 := c.W.W.Row(f + 1)
				w2 := c.W.W.Row(f + 2)
				w3 := c.W.W.Row(f + 3)
				var s0, s1, s2, s3 float64
				for ch := 0; ch < c.InC; ch++ {
					chBase := ch * chStride
					wBase := ch * c.KH * c.KW
					for ky := kyLo; ky < kyHi; ky++ {
						rowX := chBase + (iy0+ky)*c.InW + ix0
						wRow := wBase + ky*c.KW
						for kx := kxLo; kx < kxHi; kx++ {
							xv := x[rowX+kx]
							s0 += xv * w0[wRow+kx]
							s1 += xv * w1[wRow+kx]
							s2 += xv * w2[wRow+kx]
							s3 += xv * w3[wRow+kx]
						}
					}
				}
				if withBias {
					s0 += brow[f]
					s1 += brow[f+1]
					s2 += brow[f+2]
					s3 += brow[f+3]
				}
				out[f*plane+base] = s0
				out[(f+1)*plane+base] = s1
				out[(f+2)*plane+base] = s2
				out[(f+3)*plane+base] = s3
			}
			for ; f < c.OutC; f++ {
				wr := c.W.W.Row(f)
				var s float64
				for ch := 0; ch < c.InC; ch++ {
					chBase := ch * chStride
					wBase := ch * c.KH * c.KW
					for ky := kyLo; ky < kyHi; ky++ {
						rowX := chBase + (iy0+ky)*c.InW + ix0
						wRow := wBase + ky*c.KW
						for kx := kxLo; kx < kxHi; kx++ {
							s += x[rowX+kx] * wr[wRow+kx]
						}
					}
				}
				if withBias {
					s += brow[f]
				}
				out[f*plane+base] = s
			}
		}
	}
}

// forwardIntoNoPad is forwardInto for Pad == 0. Filters advance four at a
// time in the outer loop; every accumulator still sums its own products in
// (channel, ky, kx) order with the bias added last, so each output element
// is bit-identical to the padded path's result for the same position.
func (c *Conv2D) forwardIntoNoPad(x, out []float64, withBias bool) {
	brow := c.B.W.Row(0)
	plane := c.OutH * c.OutW
	chStride := c.InH * c.InW
	f := 0
	for ; f+4 <= c.OutC; f += 4 {
		w0 := c.W.W.Row(f)
		w1 := c.W.W.Row(f + 1)
		w2 := c.W.W.Row(f + 2)
		w3 := c.W.W.Row(f + 3)
		o0 := out[f*plane : (f+1)*plane]
		o1 := out[(f+1)*plane : (f+2)*plane]
		o2 := out[(f+2)*plane : (f+3)*plane]
		o3 := out[(f+3)*plane : (f+4)*plane]
		pix := 0
		for oy := 0; oy < c.OutH; oy++ {
			iy0 := oy * c.Stride
			for ox := 0; ox < c.OutW; ox++ {
				ix0 := ox * c.Stride
				var s0, s1, s2, s3 float64
				idx := 0
				for ch := 0; ch < c.InC; ch++ {
					rowBase := ch*chStride + iy0*c.InW + ix0
					if c.KW == 3 {
						for ky := 0; ky < c.KH; ky++ {
							xw := x[rowBase : rowBase+3]
							a0 := w0[idx : idx+3]
							a1 := w1[idx : idx+3]
							a2 := w2[idx : idx+3]
							a3 := w3[idx : idx+3]
							s0 += xw[0] * a0[0]
							s0 += xw[1] * a0[1]
							s0 += xw[2] * a0[2]
							s1 += xw[0] * a1[0]
							s1 += xw[1] * a1[1]
							s1 += xw[2] * a1[2]
							s2 += xw[0] * a2[0]
							s2 += xw[1] * a2[1]
							s2 += xw[2] * a2[2]
							s3 += xw[0] * a3[0]
							s3 += xw[1] * a3[1]
							s3 += xw[2] * a3[2]
							idx += 3
							rowBase += c.InW
						}
						continue
					}
					if c.KW == 5 {
						for ky := 0; ky < c.KH; ky++ {
							xw := x[rowBase : rowBase+5]
							a0 := w0[idx : idx+5]
							a1 := w1[idx : idx+5]
							a2 := w2[idx : idx+5]
							a3 := w3[idx : idx+5]
							s0 += xw[0] * a0[0]
							s0 += xw[1] * a0[1]
							s0 += xw[2] * a0[2]
							s0 += xw[3] * a0[3]
							s0 += xw[4] * a0[4]
							s1 += xw[0] * a1[0]
							s1 += xw[1] * a1[1]
							s1 += xw[2] * a1[2]
							s1 += xw[3] * a1[3]
							s1 += xw[4] * a1[4]
							s2 += xw[0] * a2[0]
							s2 += xw[1] * a2[1]
							s2 += xw[2] * a2[2]
							s2 += xw[3] * a2[3]
							s2 += xw[4] * a2[4]
							s3 += xw[0] * a3[0]
							s3 += xw[1] * a3[1]
							s3 += xw[2] * a3[2]
							s3 += xw[3] * a3[3]
							s3 += xw[4] * a3[4]
							idx += 5
							rowBase += c.InW
						}
						continue
					}
					for ky := 0; ky < c.KH; ky++ {
						xw := x[rowBase : rowBase+c.KW]
						a0 := w0[idx : idx+c.KW]
						a1 := w1[idx : idx+c.KW]
						a2 := w2[idx : idx+c.KW]
						a3 := w3[idx : idx+c.KW]
						for kx, xv := range xw {
							s0 += xv * a0[kx]
							s1 += xv * a1[kx]
							s2 += xv * a2[kx]
							s3 += xv * a3[kx]
						}
						idx += c.KW
						rowBase += c.InW
					}
				}
				if withBias {
					s0 += brow[f]
					s1 += brow[f+1]
					s2 += brow[f+2]
					s3 += brow[f+3]
				}
				o0[pix] = s0
				o1[pix] = s1
				o2[pix] = s2
				o3[pix] = s3
				pix++
			}
		}
	}
	for ; f < c.OutC; f++ {
		wr := c.W.W.Row(f)
		of := out[f*plane : (f+1)*plane]
		bias := 0.0
		if withBias {
			bias = brow[f]
		}
		pix := 0
		for oy := 0; oy < c.OutH; oy++ {
			iy0 := oy * c.Stride
			for ox := 0; ox < c.OutW; ox++ {
				ix0 := ox * c.Stride
				var s float64
				idx := 0
				for ch := 0; ch < c.InC; ch++ {
					rowBase := ch*chStride + iy0*c.InW + ix0
					switch c.KW {
					case 3:
						for ky := 0; ky < c.KH; ky++ {
							xr := x[rowBase : rowBase+3]
							wrow := wr[idx : idx+3]
							s += xr[0] * wrow[0]
							s += xr[1] * wrow[1]
							s += xr[2] * wrow[2]
							idx += 3
							rowBase += c.InW
						}
					case 5:
						for ky := 0; ky < c.KH; ky++ {
							xr := x[rowBase : rowBase+5]
							wrow := wr[idx : idx+5]
							s += xr[0] * wrow[0]
							s += xr[1] * wrow[1]
							s += xr[2] * wrow[2]
							s += xr[3] * wrow[3]
							s += xr[4] * wrow[4]
							idx += 5
							rowBase += c.InW
						}
					default:
						for ky := 0; ky < c.KH; ky++ {
							xr := x[rowBase : rowBase+c.KW]
							wrow := wr[idx : idx+c.KW]
							for kx, xv := range xr {
								s += xv * wrow[kx]
							}
							idx += c.KW
							rowBase += c.InW
						}
					}
				}
				if withBias {
					s += bias
				}
				of[pix] = s
				pix++
			}
		}
	}
}

// Forward convolves one example.
func (c *Conv2D) Forward(y, x []float64, _ *Trace) {
	checkSize("conv2d", c.InSize(), len(x))
	c.forwardInto(x, y, true)
}

// ForwardBatch convolves each row of x.
func (c *Conv2D) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchViaSingle(c, x)
}

// TrainForward is ForwardBatch with input caching.
func (c *Conv2D) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	c.lastX = x
	// forwardInto assigns every output element, so the reused buffer is safe.
	y := ensure(&c.y, x.Rows, c.OutSize())
	for i := 0; i < x.Rows; i++ {
		c.forwardInto(x.Row(i), y.Row(i), true)
	}
	return y
}

func (c *Conv2D) dropTrainState() { c.lastX, c.y, c.dx = nil, nil, nil }

// Backward accumulates kernel/bias gradients for unfrozen parameters and
// returns dX.
func (c *Conv2D) Backward(dy *tensor.Matrix) *tensor.Matrix {
	x := c.lastX
	if x == nil {
		panic("nn: Conv2D.Backward before TrainForward")
	}
	dx := ensure(&c.dx, dy.Rows, c.InSize())
	clear(dx.Data)
	if c.W.Frozen {
		c.backwardDX(dx, dy)
		return dx
	}
	plane := c.OutH * c.OutW
	chStride := c.InH * c.InW
	for r := 0; r < dy.Rows; r++ {
		xr := x.Row(r)
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for oy := 0; oy < c.OutH; oy++ {
			iy0 := oy*c.Stride - c.Pad
			for ox := 0; ox < c.OutW; ox++ {
				ix0 := ox*c.Stride - c.Pad
				if iy0 >= 0 && ix0 >= 0 && iy0+c.KH <= c.InH && ix0+c.KW <= c.InW {
					// Interior window: dW += g·x and dX += g·W straight over
					// the input rows, in the gather's (channel, ky, kx) order.
					for f := 0; f < c.OutC; f++ {
						g := dyr[f*plane+oy*c.OutW+ox]
						//lint:ignore floatcmp exact-zero skip: adding a zero gradient term is a bit-exact no-op
						if g == 0 {
							continue
						}
						if !c.B.Frozen {
							c.B.G.Data[f] += g
						}
						wg := c.W.G.Row(f)
						wr := c.W.W.Row(f)
						idx := 0
						for ch := 0; ch < c.InC; ch++ {
							rowBase := ch*chStride + iy0*c.InW + ix0
							if c.KW == 3 {
								for ky := 0; ky < c.KH; ky++ {
									xw := xr[rowBase : rowBase+3]
									dxw := dxr[rowBase : rowBase+3]
									wgw := wg[idx : idx+3]
									ww := wr[idx : idx+3]
									wgw[0] += g * xw[0]
									dxw[0] += g * ww[0]
									wgw[1] += g * xw[1]
									dxw[1] += g * ww[1]
									wgw[2] += g * xw[2]
									dxw[2] += g * ww[2]
									idx += 3
									rowBase += c.InW
								}
								continue
							}
							if c.KW == 5 {
								for ky := 0; ky < c.KH; ky++ {
									xw := xr[rowBase : rowBase+5]
									dxw := dxr[rowBase : rowBase+5]
									wgw := wg[idx : idx+5]
									ww := wr[idx : idx+5]
									wgw[0] += g * xw[0]
									dxw[0] += g * ww[0]
									wgw[1] += g * xw[1]
									dxw[1] += g * ww[1]
									wgw[2] += g * xw[2]
									dxw[2] += g * ww[2]
									wgw[3] += g * xw[3]
									dxw[3] += g * ww[3]
									wgw[4] += g * xw[4]
									dxw[4] += g * ww[4]
									idx += 5
									rowBase += c.InW
								}
								continue
							}
							for ky := 0; ky < c.KH; ky++ {
								xw := xr[rowBase : rowBase+c.KW]
								dxw := dxr[rowBase : rowBase+c.KW]
								wgw := wg[idx : idx+c.KW]
								ww := wr[idx : idx+c.KW]
								for kx, xv := range xw {
									wgw[kx] += g * xv
									dxw[kx] += g * ww[kx]
								}
								idx += c.KW
								rowBase += c.InW
							}
						}
					}
					continue
				}
				// Border: clipped to the in-bounds taps. A padding tap's
				// dW contribution is g·0 = ±0 (a no-op on the +0-rooted
				// accumulator) and its dX target does not exist, so the
				// clipped loops accumulate exactly what the gather did.
				kyLo, kyHi := clipRange(iy0, c.KH, c.InH)
				kxLo, kxHi := clipRange(ix0, c.KW, c.InW)
				for f := 0; f < c.OutC; f++ {
					g := dyr[f*plane+oy*c.OutW+ox]
					//lint:ignore floatcmp exact-zero skip: adding a zero gradient term is a bit-exact no-op
					if g == 0 {
						continue
					}
					if !c.B.Frozen {
						c.B.G.Data[f] += g
					}
					wg := c.W.G.Row(f)
					wr := c.W.W.Row(f)
					for ch := 0; ch < c.InC; ch++ {
						chBase := ch * chStride
						wBase := ch * c.KH * c.KW
						for ky := kyLo; ky < kyHi; ky++ {
							rowX := chBase + (iy0+ky)*c.InW + ix0
							wRow := wBase + ky*c.KW
							for kx := kxLo; kx < kxHi; kx++ {
								wg[wRow+kx] += g * xr[rowX+kx]
								dxr[rowX+kx] += g * wr[wRow+kx]
							}
						}
					}
				}
			}
		}
	}
	return dx
}

// backwardDX is Backward for frozen kernels: it adds g·W into the zeroed dx
// in the same (row, oy, ox, filter, channel, ky, kx) order as the full
// pass, so dX is bit-identical, and accumulates the bias gradient only if
// the bias trains.
func (c *Conv2D) backwardDX(dx, dy *tensor.Matrix) {
	plane := c.OutH * c.OutW
	chStride := c.InH * c.InW
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for oy := 0; oy < c.OutH; oy++ {
			iy0 := oy*c.Stride - c.Pad
			for ox := 0; ox < c.OutW; ox++ {
				ix0 := ox*c.Stride - c.Pad
				interior := iy0 >= 0 && ix0 >= 0 && iy0+c.KH <= c.InH && ix0+c.KW <= c.InW
				kyLo, kyHi := clipRange(iy0, c.KH, c.InH)
				kxLo, kxHi := clipRange(ix0, c.KW, c.InW)
				for f := 0; f < c.OutC; f++ {
					g := dyr[f*plane+oy*c.OutW+ox]
					//lint:ignore floatcmp exact-zero skip: adding a zero gradient term is a bit-exact no-op
					if g == 0 {
						continue
					}
					if !c.B.Frozen {
						c.B.G.Data[f] += g
					}
					wr := c.W.W.Row(f)
					if !interior {
						for ch := 0; ch < c.InC; ch++ {
							chBase := ch * chStride
							wBase := ch * c.KH * c.KW
							for ky := kyLo; ky < kyHi; ky++ {
								rowX := chBase + (iy0+ky)*c.InW + ix0
								wRow := wBase + ky*c.KW
								for kx := kxLo; kx < kxHi; kx++ {
									dxr[rowX+kx] += g * wr[wRow+kx]
								}
							}
						}
						continue
					}
					idx := 0
					for ch := 0; ch < c.InC; ch++ {
						rowBase := ch*chStride + iy0*c.InW + ix0
						switch c.KW {
						case 3:
							for ky := 0; ky < c.KH; ky++ {
								dxw := dxr[rowBase : rowBase+3]
								ww := wr[idx : idx+3]
								dxw[0] += g * ww[0]
								dxw[1] += g * ww[1]
								dxw[2] += g * ww[2]
								idx += 3
								rowBase += c.InW
							}
						case 5:
							for ky := 0; ky < c.KH; ky++ {
								dxw := dxr[rowBase : rowBase+5]
								ww := wr[idx : idx+5]
								dxw[0] += g * ww[0]
								dxw[1] += g * ww[1]
								dxw[2] += g * ww[2]
								dxw[3] += g * ww[3]
								dxw[4] += g * ww[4]
								idx += 5
								rowBase += c.InW
							}
						default:
							for ky := 0; ky < c.KH; ky++ {
								dxw := dxr[rowBase : rowBase+c.KW]
								ww := wr[idx : idx+c.KW]
								for kx := range dxw {
									dxw[kx] += g * ww[kx]
								}
								idx += c.KW
								rowBase += c.InW
							}
						}
					}
				}
			}
		}
	}
}

// JVP convolves the value with bias and every tangent column without bias
// (the convolution is linear, so tangents transform exactly). Tangents are
// staged through pooled transposes so each column convolves contiguously.
func (c *Conv2D) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	y := make([]float64, c.OutSize())
	c.forwardInto(x, y, true)
	p := j.Cols
	jT := tensor.GetMatrix(p, c.InSize())
	j.TransposeInto(jT)
	tensor.PutMatrix(j)
	jyT := tensor.GetMatrix(p, c.OutSize())
	for t := 0; t < p; t++ {
		c.forwardInto(jT.Row(t), jyT.Row(t), false)
	}
	jy := tensor.GetMatrix(c.OutSize(), p)
	jyT.TransposeInto(jy)
	tensor.PutMatrix(jT, jyT)
	return y, jy
}

// Params returns the kernel and bias parameters.
func (c *Conv2D) Params() []*Param { return []*Param{c.W, c.B} }
