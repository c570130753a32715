package nn

import (
	"math"

	"dnnlock/internal/tensor"
)

// Engine32 is the float32 shadow of a Slice's trainable suffix — the raw-
// speed tier of the §3.6 learning attack (DESIGN.md §13). It exists because
// the fit trains *only* the soft flip coefficients: every suffix weight is
// frozen, and nothing in the loop needs bit-identity to the paper's float64
// reference. The engine therefore:
//
//   - copies the frozen suffix weights to float32 once at construction,
//   - runs forward and the dX backward chain entirely in float32,
//   - skips frozen-weight gradient accumulation outright (no dW/dB work),
//   - allocates every workspace and activation cache from one Arena32,
//     sized by the first minibatch and resliced thereafter, so the epoch
//     loop performs zero heap allocations,
//   - keeps the trainable soft coefficients as float64 masters: the live
//     Flip's raw weights are read (through sigmoid, then demoted) on each
//     forward, and the float32 backward accumulates their gradients in
//     float64 straight into the Flip's float64 Param — so the Adam step,
//     the confidence stop rule, and Harden all run on exactly the same
//     code path as the exact tier.
//
// What may drift relative to float64 is only the *trajectory* of the fit
// (losses, epochs-to-plateau, coefficient magnitudes); what is recovered —
// the hardened key bits — must agree, and the precision-parity property
// test in core enforces that on every fuzzed architecture.
type Engine32 struct {
	ar     *tensor.Arena32
	layers []layer32
}

// layer32 is one float32 shadow layer: forward with caching, backward
// returning dX only (frozen weights accumulate no gradient; soft flips
// accumulate into their float64 masters).
type layer32 interface {
	forward(x *tensor.Mat[float32]) *tensor.Mat[float32]
	backward(dy *tensor.Mat[float32]) *tensor.Mat[float32]
}

// NewEngine32 builds the float32 shadow of the slice's suffix, copying
// frozen weights once. It reports ok=false when a suffix layer has no
// float32 shadow, in which case the caller must fall back to the exact
// float64 path (the arena is left untouched and still owned by the caller).
func NewEngine32(sl *Slice, ar *tensor.Arena32) (*Engine32, bool) {
	layers, ok := buildLayers32(ar, sl.net.Layers[sl.cut:])
	if !ok {
		return nil, false
	}
	return &Engine32{ar: ar, layers: layers}, true
}

// Forward runs the float32 suffix over a minibatch of boundary activations.
// The returned matrix is an engine-owned workspace, valid until the next
// Forward.
func (e *Engine32) Forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	for _, l := range e.layers {
		x = l.forward(x)
	}
	return x
}

// Backward propagates the output gradient down the suffix. Soft flip
// gradients land in their float64 Params; everything else only shapes dX.
func (e *Engine32) Backward(dy *tensor.Mat[float32]) {
	for i := len(e.layers) - 1; i >= 0; i-- {
		dy = e.layers[i].backward(dy)
	}
}

func buildLayers32(ar *tensor.Arena32, layers []Layer) ([]layer32, bool) {
	out := make([]layer32, 0, len(layers))
	for _, l := range layers {
		s, ok := buildLayer32(ar, l)
		if !ok {
			return nil, false
		}
		out = append(out, s)
	}
	return out, true
}

func buildLayer32(ar *tensor.Arena32, l Layer) (layer32, bool) {
	switch v := l.(type) {
	case *Dense:
		return newDense32(ar, v), true
	case *TokenDense:
		return &tokenDense32{ar: ar, td: v, d: newDense32(ar, v.D)}, true
	case *Conv2D:
		return newConv32(ar, v), true
	case *AvgPool2D:
		return &avgPool32{ar: ar, p: v}, true
	case *MaxPool2D:
		return &maxPool32{ar: ar, p: v}, true
	case *GlobalAvgPool:
		return &globalAvgPool32{ar: ar, p: v}, true
	case *MeanTokens:
		return &meanTokens32{ar: ar, p: v}, true
	case *ReLU:
		return &relu32{ar: ar}, true
	case *Flatten:
		return &flatten32{}, true
	case *Flip:
		return newFlip32(ar, v), true
	case *Residual:
		body, ok := buildLayers32(ar, v.Body)
		if !ok {
			return nil, false
		}
		shortcut, ok := buildLayers32(ar, v.Shortcut)
		if !ok {
			return nil, false
		}
		return &residual32{ar: ar, body: body, shortcut: shortcut, out: v.OutSize(), in: v.InSize()}, true
	case *AttentionReLU:
		return newAttn32(ar, v), true
	case *PatchEmbed:
		return newPatchEmbed32(ar, v), true
	default:
		return nil, false
	}
}

// ensure32 returns *cur resliced to rows×cols, arena-allocating it on first
// use (or if a larger batch arrives, which only happens on the first, full-
// size minibatch). This is how the engine reaches zero allocations per
// batch: one buffer per layer per direction, carved once, resliced forever.
func ensure32(ar *tensor.Arena32, cur **tensor.Mat[float32], rows, cols int) *tensor.Mat[float32] {
	m := *cur
	if m == nil || cap(m.Data) < rows*cols {
		m = ar.Mat(rows, cols)
		*cur = m
	}
	m.Rows, m.Cols = rows, cols
	m.Data = m.Data[:rows*cols]
	return m
}

func demote32(ar *tensor.Arena32, src *tensor.Matrix) *tensor.Mat[float32] {
	dst := ar.Mat(src.Rows, src.Cols)
	tensor.ConvertInto(dst, src)
	return dst
}

func demoteVec32(ar *tensor.Arena32, src []float64) []float32 {
	dst := ar.Vec(len(src))
	for i, v := range src {
		dst[i] = float32(v)
	}
	return dst
}

// dense32 — y = X·Wᵀ + b forward; backward is dX = dY·W only (W, b frozen).
type dense32 struct {
	ar    *tensor.Arena32
	w     *tensor.Mat[float32] // out×in
	b     []float32
	y, dx *tensor.Mat[float32]
}

func newDense32(ar *tensor.Arena32, d *Dense) *dense32 {
	return &dense32{ar: ar, w: demote32(ar, d.W.W), b: demoteVec32(ar, d.B.W.Row(0))}
}

func (d *dense32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	y := ensure32(d.ar, &d.y, x.Rows, d.w.Rows)
	tensor.MatMulABTInto(y, x, d.w)
	for i := 0; i < y.Rows; i++ {
		row := y.Row(i)
		for o, bv := range d.b {
			row[o] += bv
		}
	}
	return y
}

func (d *dense32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	dx := ensure32(d.ar, &d.dx, dy.Rows, d.w.Cols)
	tensor.MatMulInto(dx, dy, d.w)
	return dx
}

// tokenDense32 reshapes rows into token batches around a shared dense32.
type tokenDense32 struct {
	ar          *tensor.Arena32
	td          *TokenDense
	d           *dense32
	tokens, dtk *tensor.Mat[float32]
	y, dx       *tensor.Mat[float32]
}

func (t *tokenDense32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	T, in, out := t.td.T, t.td.D.In, t.td.D.Out
	tok := ensure32(t.ar, &t.tokens, x.Rows*T, in)
	for i := 0; i < x.Rows; i++ {
		xr := x.Row(i)
		for k := 0; k < T; k++ {
			copy(tok.Row(i*T+k), xr[k*in:(k+1)*in])
		}
	}
	yt := t.d.forward(tok)
	y := ensure32(t.ar, &t.y, x.Rows, T*out)
	for i := 0; i < x.Rows; i++ {
		yr := y.Row(i)
		for k := 0; k < T; k++ {
			copy(yr[k*out:(k+1)*out], yt.Row(i*T+k))
		}
	}
	return y
}

func (t *tokenDense32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	T, in, out := t.td.T, t.td.D.In, t.td.D.Out
	dtk := ensure32(t.ar, &t.dtk, dy.Rows*T, out)
	for i := 0; i < dy.Rows; i++ {
		dr := dy.Row(i)
		for k := 0; k < T; k++ {
			copy(dtk.Row(i*T+k), dr[k*out:(k+1)*out])
		}
	}
	dxt := t.d.backward(dtk)
	dx := ensure32(t.ar, &t.dx, dy.Rows, T*in)
	for i := 0; i < dy.Rows; i++ {
		dr := dx.Row(i)
		for k := 0; k < T; k++ {
			copy(dr[k*in:(k+1)*in], dxt.Row(i*T+k))
		}
	}
	return dx
}

// conv32 — im2col dot-product forward; backward scatters dX = g·W only,
// which needs no patch gather at all once dW is dropped.
type conv32 struct {
	ar    *tensor.Arena32
	c     *Conv2D
	w     *tensor.Mat[float32]
	b     []float32
	y, dx *tensor.Mat[float32]
}

func newConv32(ar *tensor.Arena32, c *Conv2D) *conv32 {
	return &conv32{
		ar: ar, c: c,
		w: demote32(ar, c.W.W), b: demoteVec32(ar, c.B.W.Row(0)),
	}
}

func (cv *conv32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	c := cv.c
	y := ensure32(cv.ar, &cv.y, x.Rows, c.OutSize())
	plane := c.OutH * c.OutW
	chStride := c.InH * c.InW
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		if c.Pad == 0 {
			// Every window is in-bounds, so the row runs filter-major like
			// Conv2D.forwardIntoNoPad: filter rows sliced once per block,
			// planes written sequentially. Accumulation order per output
			// element is unchanged.
			cv.forwardRowNoPad(xr, yr)
			continue
		}
		for oy := 0; oy < c.OutH; oy++ {
			iy0 := oy*c.Stride - c.Pad
			for ox := 0; ox < c.OutW; ox++ {
				ix0 := ox*c.Stride - c.Pad
				if iy0 >= 0 && ix0 >= 0 && iy0+c.KH <= c.InH && ix0+c.KW <= c.InW {
					// Interior window: fused dot straight over the input rows,
					// mirroring the float64 fast path in Conv2D.forwardInto.
					// Filters go four at a time so each input window load
					// feeds four accumulators; every accumulator still sums
					// its own products in (channel, ky, kx) order, so each
					// output matches the one-filter-at-a-time result exactly.
					base := oy*c.OutW + ox
					f := 0
					for ; f+4 <= c.OutC; f += 4 {
						w0 := cv.w.Row(f)
						w1 := cv.w.Row(f + 1)
						w2 := cv.w.Row(f + 2)
						w3 := cv.w.Row(f + 3)
						var s0, s1, s2, s3 float32
						idx := 0
						for ch := 0; ch < c.InC; ch++ {
							rowBase := ch*chStride + iy0*c.InW + ix0
							if c.KW == 3 {
								for ky := 0; ky < c.KH; ky++ {
									xw := xr[rowBase : rowBase+3]
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
									xw := xr[rowBase : rowBase+5]
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
								xw := xr[rowBase : rowBase+c.KW]
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
						yr[f*plane+base] = s0 + cv.b[f]
						yr[(f+1)*plane+base] = s1 + cv.b[f+1]
						yr[(f+2)*plane+base] = s2 + cv.b[f+2]
						yr[(f+3)*plane+base] = s3 + cv.b[f+3]
					}
					for ; f < c.OutC; f++ {
						wr := cv.w.Row(f)
						var s float32
						idx := 0
						for ch := 0; ch < c.InC; ch++ {
							rowBase := ch*chStride + iy0*c.InW + ix0
							switch c.KW {
							case 3:
								for ky := 0; ky < c.KH; ky++ {
									xw := xr[rowBase : rowBase+3]
									ww := wr[idx : idx+3]
									s += xw[0] * ww[0]
									s += xw[1] * ww[1]
									s += xw[2] * ww[2]
									idx += 3
									rowBase += c.InW
								}
							case 5:
								for ky := 0; ky < c.KH; ky++ {
									xw := xr[rowBase : rowBase+5]
									ww := wr[idx : idx+5]
									s += xw[0] * ww[0]
									s += xw[1] * ww[1]
									s += xw[2] * ww[2]
									s += xw[3] * ww[3]
									s += xw[4] * ww[4]
									idx += 5
									rowBase += c.InW
								}
							default:
								for ky := 0; ky < c.KH; ky++ {
									xw := xr[rowBase : rowBase+c.KW]
									ww := wr[idx : idx+c.KW]
									for kx, xv := range xw {
										s += xv * ww[kx]
									}
									idx += c.KW
									rowBase += c.InW
								}
							}
						}
						yr[f*plane+oy*c.OutW+ox] = s + cv.b[f]
					}
					continue
				}
				// Border window: clipped fused dot over the in-bounds taps.
				// Padding taps contribute exact-zero products, which never
				// move a finite accumulator, so skipping them matches the
				// gather-then-Dot result.
				kyLo, kyHi := clipRange(iy0, c.KH, c.InH)
				kxLo, kxHi := clipRange(ix0, c.KW, c.InW)
				base := oy*c.OutW + ox
				f := 0
				for ; f+4 <= c.OutC; f += 4 {
					w0 := cv.w.Row(f)
					w1 := cv.w.Row(f + 1)
					w2 := cv.w.Row(f + 2)
					w3 := cv.w.Row(f + 3)
					var s0, s1, s2, s3 float32
					for ch := 0; ch < c.InC; ch++ {
						chBase := ch * chStride
						wBase := ch * c.KH * c.KW
						for ky := kyLo; ky < kyHi; ky++ {
							rowX := chBase + (iy0+ky)*c.InW + ix0
							wRow := wBase + ky*c.KW
							for kx := kxLo; kx < kxHi; kx++ {
								xv := xr[rowX+kx]
								s0 += xv * w0[wRow+kx]
								s1 += xv * w1[wRow+kx]
								s2 += xv * w2[wRow+kx]
								s3 += xv * w3[wRow+kx]
							}
						}
					}
					yr[f*plane+base] = s0 + cv.b[f]
					yr[(f+1)*plane+base] = s1 + cv.b[f+1]
					yr[(f+2)*plane+base] = s2 + cv.b[f+2]
					yr[(f+3)*plane+base] = s3 + cv.b[f+3]
				}
				for ; f < c.OutC; f++ {
					wr := cv.w.Row(f)
					var s float32
					for ch := 0; ch < c.InC; ch++ {
						chBase := ch * chStride
						wBase := ch * c.KH * c.KW
						for ky := kyLo; ky < kyHi; ky++ {
							rowX := chBase + (iy0+ky)*c.InW + ix0
							wRow := wBase + ky*c.KW
							for kx := kxLo; kx < kxHi; kx++ {
								s += xr[rowX+kx] * wr[wRow+kx]
							}
						}
					}
					yr[f*plane+base] = s + cv.b[f]
				}
			}
		}
	}
	return y
}

// forwardRowNoPad convolves one example filter-major for Pad == 0 nets —
// the float32 mirror of Conv2D.forwardIntoNoPad.
func (cv *conv32) forwardRowNoPad(xr, yr []float32) {
	c := cv.c
	plane := c.OutH * c.OutW
	chStride := c.InH * c.InW
	f := 0
	for ; f+4 <= c.OutC; f += 4 {
		w0 := cv.w.Row(f)
		w1 := cv.w.Row(f + 1)
		w2 := cv.w.Row(f + 2)
		w3 := cv.w.Row(f + 3)
		b0, b1, b2, b3 := cv.b[f], cv.b[f+1], cv.b[f+2], cv.b[f+3]
		o0 := yr[f*plane : (f+1)*plane]
		o1 := yr[(f+1)*plane : (f+2)*plane]
		o2 := yr[(f+2)*plane : (f+3)*plane]
		o3 := yr[(f+3)*plane : (f+4)*plane]
		pix := 0
		for oy := 0; oy < c.OutH; oy++ {
			iy0 := oy * c.Stride
			for ox := 0; ox < c.OutW; ox++ {
				ix0 := ox * c.Stride
				var s0, s1, s2, s3 float32
				idx := 0
				for ch := 0; ch < c.InC; ch++ {
					rowBase := ch*chStride + iy0*c.InW + ix0
					if c.KW == 3 {
						for ky := 0; ky < c.KH; ky++ {
							xw := xr[rowBase : rowBase+3]
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
							xw := xr[rowBase : rowBase+5]
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
						xw := xr[rowBase : rowBase+c.KW]
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
				o0[pix] = s0 + b0
				o1[pix] = s1 + b1
				o2[pix] = s2 + b2
				o3[pix] = s3 + b3
				pix++
			}
		}
	}
	for ; f < c.OutC; f++ {
		wr := cv.w.Row(f)
		bias := cv.b[f]
		of := yr[f*plane : (f+1)*plane]
		pix := 0
		for oy := 0; oy < c.OutH; oy++ {
			iy0 := oy * c.Stride
			for ox := 0; ox < c.OutW; ox++ {
				ix0 := ox * c.Stride
				var s float32
				idx := 0
				for ch := 0; ch < c.InC; ch++ {
					rowBase := ch*chStride + iy0*c.InW + ix0
					switch c.KW {
					case 3:
						for ky := 0; ky < c.KH; ky++ {
							xw := xr[rowBase : rowBase+3]
							ww := wr[idx : idx+3]
							s += xw[0] * ww[0]
							s += xw[1] * ww[1]
							s += xw[2] * ww[2]
							idx += 3
							rowBase += c.InW
						}
					case 5:
						for ky := 0; ky < c.KH; ky++ {
							xw := xr[rowBase : rowBase+5]
							ww := wr[idx : idx+5]
							s += xw[0] * ww[0]
							s += xw[1] * ww[1]
							s += xw[2] * ww[2]
							s += xw[3] * ww[3]
							s += xw[4] * ww[4]
							idx += 5
							rowBase += c.InW
						}
					default:
						for ky := 0; ky < c.KH; ky++ {
							xw := xr[rowBase : rowBase+c.KW]
							ww := wr[idx : idx+c.KW]
							for kx, xv := range xw {
								s += xv * ww[kx]
							}
							idx += c.KW
							rowBase += c.InW
						}
					}
				}
				of[pix] = s + bias
				pix++
			}
		}
	}
}

func (cv *conv32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	c := cv.c
	dx := ensure32(cv.ar, &cv.dx, dy.Rows, c.InSize())
	zero32(dx.Data)
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
				for f := 0; f < c.OutC; f++ {
					g := dyr[f*plane+oy*c.OutW+ox]
					//lint:ignore floatcmp exact-zero skip: adding a zero gradient term is a bit-exact no-op
					if g == 0 {
						continue
					}
					wr := cv.w.Row(f)
					if interior {
						idx := 0
						for ch := 0; ch < c.InC; ch++ {
							rowBase := ch*chStride + iy0*c.InW + ix0
							if c.KW == 3 {
								for ky := 0; ky < c.KH; ky++ {
									dxw := dxr[rowBase : rowBase+3]
									ww := wr[idx : idx+3]
									dxw[0] += g * ww[0]
									dxw[1] += g * ww[1]
									dxw[2] += g * ww[2]
									idx += 3
									rowBase += c.InW
								}
								continue
							}
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
						continue
					}
					// Border: scatter only the in-bounds taps (the checked
					// loop never touched out-of-bounds ones either).
					kyLo, kyHi := clipRange(iy0, c.KH, c.InH)
					kxLo, kxHi := clipRange(ix0, c.KW, c.InW)
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
				}
			}
		}
	}
	return dx
}

// avgPool32 — linear pooling; no cache needed.
type avgPool32 struct {
	ar    *tensor.Arena32
	p     *AvgPool2D
	y, dx *tensor.Mat[float32]
}

func (a *avgPool32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	p := a.p
	y := ensure32(a.ar, &a.y, x.Rows, p.OutSize())
	inv := 1 / float32(p.K*p.K)
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		for c := 0; c < p.C; c++ {
			inBase := c * p.InH * p.InW
			outBase := c * p.OutH * p.OutW
			for oy := 0; oy < p.OutH; oy++ {
				for ox := 0; ox < p.OutW; ox++ {
					var s float32
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.K; kx++ {
							s += xr[inBase+iy*p.InW+ox*p.Stride+kx]
						}
					}
					yr[outBase+oy*p.OutW+ox] = s * inv
				}
			}
		}
	}
	return y
}

func (a *avgPool32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	p := a.p
	dx := ensure32(a.ar, &a.dx, dy.Rows, p.InSize())
	zero32(dx.Data)
	inv := 1 / float32(p.K*p.K)
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for c := 0; c < p.C; c++ {
			inBase := c * p.InH * p.InW
			outBase := c * p.OutH * p.OutW
			for oy := 0; oy < p.OutH; oy++ {
				for ox := 0; ox < p.OutW; ox++ {
					g := dyr[outBase+oy*p.OutW+ox] * inv
					for ky := 0; ky < p.K; ky++ {
						iy := oy*p.Stride + ky
						for kx := 0; kx < p.K; kx++ {
							dxr[inBase+iy*p.InW+ox*p.Stride+kx] += g
						}
					}
				}
			}
		}
	}
	return dx
}

// maxPool32 caches the per-row argmax indices in an arena-free int slice
// sized once for the first batch.
type maxPool32 struct {
	ar    *tensor.Arena32
	p     *MaxPool2D
	args  []int
	y, dx *tensor.Mat[float32]
}

func (m *maxPool32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	p := m.p
	out := p.OutSize()
	y := ensure32(m.ar, &m.y, x.Rows, out)
	if cap(m.args) < x.Rows*out {
		m.args = make([]int, x.Rows*out)
	}
	m.args = m.args[:x.Rows*out]
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		args := m.args[r*out : (r+1)*out]
		for c := 0; c < p.C; c++ {
			inBase := c * p.InH * p.InW
			outBase := c * p.OutH * p.OutW
			for oy := 0; oy < p.OutH; oy++ {
				rowBase := inBase + oy*p.Stride*p.InW
				o := outBase + oy*p.OutW
				if p.K == 2 {
					// 2×2 window unrolled in the same (ky, kx) scan order,
					// so ties resolve to the same first-wins index.
					for ox := 0; ox < p.OutW; ox++ {
						winBase := rowBase + ox*p.Stride
						best, bestIdx := xr[winBase], winBase
						if v := xr[winBase+1]; v > best {
							best, bestIdx = v, winBase+1
						}
						if v := xr[winBase+p.InW]; v > best {
							best, bestIdx = v, winBase+p.InW
						}
						if v := xr[winBase+p.InW+1]; v > best {
							best, bestIdx = v, winBase+p.InW+1
						}
						yr[o] = best
						args[o] = bestIdx
						o++
					}
					continue
				}
				for ox := 0; ox < p.OutW; ox++ {
					winBase := rowBase + ox*p.Stride
					bestIdx := winBase
					best := xr[winBase]
					for ky := 0; ky < p.K; ky++ {
						idx := winBase + ky*p.InW
						for kx := 0; kx < p.K; kx++ {
							if v := xr[idx]; v > best {
								best = v
								bestIdx = idx
							}
							idx++
						}
					}
					yr[o] = best
					args[o] = bestIdx
					o++
				}
			}
		}
	}
	return y
}

func (m *maxPool32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	p := m.p
	out := p.OutSize()
	dx := ensure32(m.ar, &m.dx, dy.Rows, p.InSize())
	zero32(dx.Data)
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		args := m.args[r*out : (r+1)*out]
		for o, g := range dyr {
			dxr[args[o]] += g
		}
	}
	return dx
}

// globalAvgPool32 — channel means.
type globalAvgPool32 struct {
	ar    *tensor.Arena32
	p     *GlobalAvgPool
	y, dx *tensor.Mat[float32]
}

func (g *globalAvgPool32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	p := g.p
	plane := p.H * p.W
	inv := 1 / float32(plane)
	y := ensure32(g.ar, &g.y, x.Rows, p.C)
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		for c := 0; c < p.C; c++ {
			var s float32
			for i := c * plane; i < (c+1)*plane; i++ {
				s += xr[i]
			}
			yr[c] = s * inv
		}
	}
	return y
}

func (g *globalAvgPool32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	p := g.p
	plane := p.H * p.W
	inv := 1 / float32(plane)
	dx := ensure32(g.ar, &g.dx, dy.Rows, p.C*plane)
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for c := 0; c < p.C; c++ {
			gv := dyr[c] * inv
			for i := c * plane; i < (c+1)*plane; i++ {
				dxr[i] = gv
			}
		}
	}
	return dx
}

// meanTokens32 — token means.
type meanTokens32 struct {
	ar    *tensor.Arena32
	p     *MeanTokens
	y, dx *tensor.Mat[float32]
}

func (m *meanTokens32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	p := m.p
	inv := 1 / float32(p.T)
	y := ensure32(m.ar, &m.y, x.Rows, p.D)
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		zero32(yr)
		for t := 0; t < p.T; t++ {
			for d := 0; d < p.D; d++ {
				yr[d] += xr[t*p.D+d]
			}
		}
		for d := range yr {
			yr[d] *= inv
		}
	}
	return y
}

func (m *meanTokens32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	p := m.p
	inv := 1 / float32(p.T)
	dx := ensure32(m.ar, &m.dx, dy.Rows, p.T*p.D)
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for t := 0; t < p.T; t++ {
			for d := 0; d < p.D; d++ {
				dxr[t*p.D+d] = dyr[d] * inv
			}
		}
	}
	return dx
}

// relu32 — forward fills a 0/1 mask alongside the output so backward is a
// branch-free multiply. Signs of pre-activations are effectively random
// mid-training, so a compare-and-branch backward pays a misprediction per
// element; the mask multiply streams straight through.
type relu32 struct {
	ar          *tensor.Arena32
	y, dx, mask *tensor.Mat[float32]
}

func (r *relu32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	y := ensure32(r.ar, &r.y, x.Rows, x.Cols)
	mk := ensure32(r.ar, &r.mask, x.Rows, x.Cols)
	xd := x.Data
	yd := y.Data[:len(xd)]
	md := mk.Data[:len(xd)]
	for i, v := range xd {
		// Branch-free v > 0: sign bit clear AND bits non-zero. Pre-activation
		// signs are ~random mid-fit, so a compare-and-branch would mispredict
		// every other element; the bit version streams straight through. The
		// output is still v*m exactly as before, so values are unchanged
		// (m is exactly 0 or 1, and NaNs never reach the engine).
		u := math.Float32bits(v)
		m := relu32Mask[(u>>31^1)&((u|-u)>>31)]
		md[i] = m
		yd[i] = v * m
	}
	return y
}

// relu32Mask maps the bit-test result of relu32.forward to a float mask
// without an int→float conversion per element.
var relu32Mask = [2]float32{0, 1}

func (r *relu32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	dx := ensure32(r.ar, &r.dx, dy.Rows, dy.Cols)
	gd := dy.Data
	md := r.mask.Data[:len(gd)]
	dxd := dx.Data[:len(gd)]
	for i, g := range gd {
		dxd[i] = g * md[i]
	}
	return dx
}

// flatten32 — identity.
type flatten32 struct{}

func (f *flatten32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32]   { return x }
func (f *flatten32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] { return dy }

// flip32 applies hard signs in float32 but keeps the soft coefficients as
// float64 masters on the live Flip: each forward reads σ(w) from the Flip's
// raw float64 weights, each backward accumulates the raw-weight gradient in
// float64 straight into the Flip's Param. Adam, the stop rules, and Harden
// then operate on exactly the state the exact tier would.
type flip32 struct {
	ar      *tensor.Arena32
	f       *Flip
	signs   []float32
	offsets []float32
	lastX   *tensor.Mat[float32]
	y, dx   *tensor.Mat[float32]
}

func newFlip32(ar *tensor.Arena32, f *Flip) *flip32 {
	fl := &flip32{ar: ar, f: f, signs: demoteVec32(ar, f.Signs)}
	if f.Offsets != nil {
		fl.offsets = demoteVec32(ar, f.Offsets)
	}
	return fl
}

func (fl *flip32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	fl.lastX = x
	y := ensure32(fl.ar, &fl.y, x.Rows, x.Cols)
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		for i, v := range xr {
			yr[i] = fl.signs[i] * v
		}
		if fl.offsets != nil {
			for i, o := range fl.offsets {
				yr[i] += o
			}
		}
	}
	f := fl.f
	for i, j := range f.softIdx {
		s := float32(sigmoid(f.softW.W.Data[i]))
		if f.softGated {
			for r := 0; r < x.Rows; r++ {
				u := x.At(r, j)
				y.Set(r, j, (1-s)*reluF32(u)+s*reluF32(-u))
			}
		} else {
			k := 1 - 2*s
			for r := 0; r < x.Rows; r++ {
				y.Set(r, j, k*x.At(r, j))
			}
		}
	}
	return y
}

func (fl *flip32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	dx := ensure32(fl.ar, &fl.dx, dy.Rows, dy.Cols)
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for j, g := range dyr {
			dxr[j] = g * fl.signs[j]
		}
	}
	f := fl.f
	for i, j := range f.softIdx {
		s := sigmoid(f.softW.W.Data[i])
		ds := s * (1 - s)
		s32 := float32(s)
		gw := 0.0 // float64 accumulator: the master gradient stays stable
		for r := 0; r < dy.Rows; r++ {
			g := dy.At(r, j)
			u := fl.lastX.At(r, j)
			var dydu float32
			var dydw float64
			if f.softGated {
				dydw = (float64(reluF32(-u)) - float64(reluF32(u))) * ds
				switch {
				case u > 0:
					dydu = 1 - s32
				case u < 0:
					dydu = -s32
				}
			} else {
				dydw = -2 * float64(u) * ds
				dydu = 1 - 2*s32
			}
			dx.Set(r, j, g*dydu)
			gw += float64(g) * dydw
		}
		f.softW.G.Data[i] += gw
	}
	return dx
}

func reluF32(v float32) float32 {
	if v > 0 {
		return v
	}
	return 0
}

// residual32 — y = body(x) + shortcut(x).
type residual32 struct {
	ar             *tensor.Arena32
	body, shortcut []layer32
	in, out        int
	y, dx          *tensor.Mat[float32]
}

func (rs *residual32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	b := x
	for _, l := range rs.body {
		b = l.forward(b)
	}
	s := x
	for _, l := range rs.shortcut {
		s = l.forward(s)
	}
	y := ensure32(rs.ar, &rs.y, x.Rows, rs.out)
	for i := range y.Data {
		y.Data[i] = b.Data[i] + s.Data[i]
	}
	return y
}

func (rs *residual32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	db := dy
	for i := len(rs.body) - 1; i >= 0; i-- {
		db = rs.body[i].backward(db)
	}
	ds := dy
	for i := len(rs.shortcut) - 1; i >= 0; i-- {
		ds = rs.shortcut[i].backward(ds)
	}
	dx := ensure32(rs.ar, &rs.dx, dy.Rows, rs.in)
	for i := range dx.Data {
		dx.Data[i] = db.Data[i] + ds.Data[i]
	}
	return dx
}

// attn32 — the attention algebra with the four weight-gradient products of
// the float64 Backward dropped (Wq/Wk/Wv/Wo are frozen). Per-row K/Q/V/S
// caches are arena matrices allocated once per row slot.
type attn32 struct {
	ar             *tensor.Arena32
	a              *AttentionReLU
	wq, wk, wv, wo *tensor.Mat[float32]

	cQ, cK, cV, cS []*tensor.Mat[float32]

	u, do, ds, du, dv, dq, dk *tensor.Mat[float32]
	y, dx                     *tensor.Mat[float32]
}

func newAttn32(ar *tensor.Arena32, a *AttentionReLU) *attn32 {
	return &attn32{
		ar: ar, a: a,
		wq: demote32(ar, a.Wq.W), wk: demote32(ar, a.Wk.W),
		wv: demote32(ar, a.Wv.W), wo: demote32(ar, a.Wo.W),
	}
}

func (at *attn32) ensureCaches(n int) {
	for len(at.cQ) < n {
		at.cQ = append(at.cQ, at.ar.Mat(at.a.T, at.a.Dh))
		at.cK = append(at.cK, at.ar.Mat(at.a.T, at.a.Dh))
		at.cV = append(at.cV, at.ar.Mat(at.a.T, at.a.Dh))
		at.cS = append(at.cS, at.ar.Mat(at.a.T, at.a.T))
	}
}

func (at *attn32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	a := at.a
	at.ensureCaches(x.Rows)
	y := ensure32(at.ar, &at.y, x.Rows, a.OutSize())
	u := ensure32(at.ar, &at.u, a.T, a.T)
	o := ensure32(at.ar, &at.do, a.T, a.Dh) // reuse the dO workspace as O
	sa := float32(a.scaleA())
	sb := float32(a.scaleB())
	for r := 0; r < x.Rows; r++ {
		xm := tensor.FromSlice(a.T, a.D, x.Row(r))
		q, k, v, s := at.cQ[r], at.cK[r], at.cV[r], at.cS[r]
		tensor.MatMulInto(q, xm, at.wq)
		tensor.MatMulInto(k, xm, at.wk)
		tensor.MatMulInto(v, xm, at.wv)
		tensor.MatMulABTInto(u, q, k)
		for i, uv := range u.Data {
			if uv*sa > 0 {
				s.Data[i] = uv * sa * sb
			} else {
				s.Data[i] = 0
			}
		}
		tensor.MatMulInto(o, s, v)
		ym := tensor.FromSlice(a.T, a.D, y.Row(r))
		tensor.MatMulInto(ym, o, at.wo)
	}
	return y
}

func (at *attn32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	a := at.a
	sa := float32(a.scaleA())
	sb := float32(a.scaleB())
	dx := ensure32(at.ar, &at.dx, dy.Rows, a.InSize())
	do := ensure32(at.ar, &at.do, a.T, a.Dh)
	ds := ensure32(at.ar, &at.ds, a.T, a.T)
	du := ensure32(at.ar, &at.du, a.T, a.T)
	dv := ensure32(at.ar, &at.dv, a.T, a.Dh)
	dq := ensure32(at.ar, &at.dq, a.T, a.Dh)
	dk := ensure32(at.ar, &at.dk, a.T, a.Dh)
	for r := 0; r < dy.Rows; r++ {
		dym := tensor.FromSlice(a.T, a.D, dy.Row(r))
		q, k, v, s := at.cQ[r], at.cK[r], at.cV[r], at.cS[r]

		tensor.MatMulABTInto(do, dym, at.wo) // dO = dY·Woᵀ
		tensor.MatMulABTInto(ds, do, v)      // dS = dO·Vᵀ
		tensor.MatMulATBInto(dv, s, do)      // dV = Sᵀ·dO

		for i := range ds.Data {
			if s.Data[i] > 0 { // S > 0 ⇔ the pre-ReLU score was positive
				du.Data[i] = ds.Data[i] * sb
			} else {
				du.Data[i] = 0
			}
		}
		tensor.MatMulInto(dq, du, k)
		dq.ScaleInPlace(sa)
		tensor.MatMulATBInto(dk, du, q) // dK = dUᵀ·Q
		dk.ScaleInPlace(sa)

		dxm := tensor.FromSlice(a.T, a.D, dx.Row(r))
		tensor.MatMulABTInto(dxm, dq, at.wq) // dX = dQ·Wqᵀ + dK·Wkᵀ + dV·Wvᵀ
		tensor.MatMulABTAddInto(dxm, dk, at.wk)
		tensor.MatMulABTAddInto(dxm, dv, at.wv)
	}
	return dx
}

// patchEmbed32 — shared projection forward; backward scatters dX only, so
// the patch gather disappears entirely from the backward pass.
type patchEmbed32 struct {
	ar        *tensor.Arena32
	pe        *PatchEmbed
	w         *tensor.Mat[float32]
	b         []float32
	buf, dbuf []float32
	y, dx     *tensor.Mat[float32]
}

func newPatchEmbed32(ar *tensor.Arena32, pe *PatchEmbed) *patchEmbed32 {
	n := pe.C * pe.P * pe.P
	return &patchEmbed32{
		ar: ar, pe: pe,
		w: demote32(ar, pe.Wt.W), b: demoteVec32(ar, pe.B.W.Row(0)),
		buf: ar.Vec(n), dbuf: ar.Vec(n),
	}
}

func (p *patchEmbed32) forward(x *tensor.Mat[float32]) *tensor.Mat[float32] {
	pe := p.pe
	y := ensure32(p.ar, &p.y, x.Rows, pe.OutSize())
	cols := pe.W / pe.P
	for r := 0; r < x.Rows; r++ {
		xr := x.Row(r)
		yr := y.Row(r)
		for t := 0; t < pe.T; t++ {
			py, px := t/cols, t%cols
			idx := 0
			for c := 0; c < pe.C; c++ {
				base := c * pe.H * pe.W
				for dy := 0; dy < pe.P; dy++ {
					rowBase := base + (py*pe.P+dy)*pe.W + px*pe.P
					for dx := 0; dx < pe.P; dx++ {
						p.buf[idx] = xr[rowBase+dx]
						idx++
					}
				}
			}
			for d := 0; d < pe.D; d++ {
				yr[t*pe.D+d] = tensor.Dot(p.w.Row(d), p.buf) + p.b[d]
			}
		}
	}
	return y
}

func (p *patchEmbed32) backward(dy *tensor.Mat[float32]) *tensor.Mat[float32] {
	pe := p.pe
	dx := ensure32(p.ar, &p.dx, dy.Rows, pe.InSize())
	zero32(dx.Data)
	cols := pe.W / pe.P
	for r := 0; r < dy.Rows; r++ {
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for t := 0; t < pe.T; t++ {
			zero32(p.dbuf)
			for d := 0; d < pe.D; d++ {
				g := dyr[t*pe.D+d]
				//lint:ignore floatcmp exact-zero skip: adding a zero gradient term is a bit-exact no-op
				if g == 0 {
					continue
				}
				wr := p.w.Row(d)
				for i := range p.dbuf {
					p.dbuf[i] += g * wr[i]
				}
			}
			py, px := t/cols, t%cols
			idx := 0
			for c := 0; c < pe.C; c++ {
				base := c * pe.H * pe.W
				for dy := 0; dy < pe.P; dy++ {
					rowBase := base + (py*pe.P+dy)*pe.W + px*pe.P
					for dx := 0; dx < pe.P; dx++ {
						dxr[rowBase+dx] += p.dbuf[idx]
						idx++
					}
				}
			}
		}
	}
	return dx
}

func zero32(v []float32) {
	for i := range v {
		v[i] = 0
	}
}
