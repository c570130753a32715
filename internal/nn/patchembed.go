package nn

import (
	"fmt"
	"math"
	"math/rand"

	"dnnlock/internal/tensor"
)

// PatchEmbed splits a CHW image into non-overlapping P×P patches and
// projects each patch to a D-dimensional token with a shared linear map
// (the ViT patch embedding). Output is T·D flat, token-major, with
// T = (H/P)·(W/P).
type PatchEmbed struct {
	C, H, W int
	P       int // patch side
	D       int // token width
	T       int // token count
	Wt, B   *Param

	// Training-pass state (see Layer): the cached input, output buffers,
	// and patch scratch.
	lastX, y, dx *tensor.Matrix
	buf, dbuf    []float64
}

// NewPatchEmbed constructs the embedding; H and W must be multiples of p.
func NewPatchEmbed(c, h, w, p, d int) *PatchEmbed {
	if h%p != 0 || w%p != 0 {
		panic(fmt.Sprintf("nn: patch size %d does not divide %dx%d", p, h, w))
	}
	t := (h / p) * (w / p)
	return &PatchEmbed{
		C: c, H: h, W: w, P: p, D: d, T: t,
		Wt: NewParam("patch_w", d, c*p*p),
		B:  NewParam("patch_b", 1, d),
	}
}

// InitXavier initializes the projection.
func (pe *PatchEmbed) InitXavier(rng *rand.Rand) *PatchEmbed {
	std := math.Sqrt(2.0 / float64(pe.C*pe.P*pe.P+pe.D))
	for i := range pe.Wt.W.Data {
		pe.Wt.W.Data[i] = rng.NormFloat64() * std
	}
	return pe
}

func (pe *PatchEmbed) Name() string { return "patch_embed" }

// InSize returns C·H·W.
func (pe *PatchEmbed) InSize() int { return pe.C * pe.H * pe.W }

// OutSize returns T·D.
func (pe *PatchEmbed) OutSize() int { return pe.T * pe.D }

// gather extracts the flat patch for token t into dst (length C·P·P).
func (pe *PatchEmbed) gather(x []float64, t int, dst []float64) {
	cols := pe.W / pe.P
	py, px := t/cols, t%cols
	idx := 0
	for c := 0; c < pe.C; c++ {
		base := c * pe.H * pe.W
		for dy := 0; dy < pe.P; dy++ {
			iy := py*pe.P + dy
			rowBase := base + iy*pe.W + px*pe.P
			for dx := 0; dx < pe.P; dx++ {
				dst[idx] = x[rowBase+dx]
				idx++
			}
		}
	}
}

// scatter adds src (length C·P·P) back into the image-gradient for token t.
func (pe *PatchEmbed) scatter(dst []float64, t int, src []float64) {
	cols := pe.W / pe.P
	py, px := t/cols, t%cols
	idx := 0
	for c := 0; c < pe.C; c++ {
		base := c * pe.H * pe.W
		for dy := 0; dy < pe.P; dy++ {
			iy := py*pe.P + dy
			rowBase := base + iy*pe.W + px*pe.P
			for dx := 0; dx < pe.P; dx++ {
				dst[rowBase+dx] += src[idx]
				idx++
			}
		}
	}
}

// forwardOne embeds one example; bias optional for the linear tangent path.
func (pe *PatchEmbed) forwardOne(x []float64, withBias bool) []float64 {
	out := make([]float64, pe.OutSize())
	pe.forwardInto(x, out, make([]float64, pe.C*pe.P*pe.P), withBias)
	return out
}

// forwardInto embeds one example into out (length OutSize), gathering each
// patch into buf (length C·P·P).
func (pe *PatchEmbed) forwardInto(x, out, buf []float64, withBias bool) {
	brow := pe.B.W.Row(0)
	for t := 0; t < pe.T; t++ {
		pe.gather(x, t, buf)
		for d := 0; d < pe.D; d++ {
			v := tensor.Dot(pe.Wt.W.Row(d), buf)
			if withBias {
				v += brow[d]
			}
			out[t*pe.D+d] = v
		}
	}
}

// Forward embeds one flat example.
func (pe *PatchEmbed) Forward(x []float64, _ *Trace) []float64 {
	checkSize("patch_embed", pe.InSize(), len(x))
	return pe.forwardOne(x, true)
}

// ForwardBatch embeds each row.
func (pe *PatchEmbed) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchViaSingle(pe, x)
}

// TrainForward is ForwardBatch with input caching.
func (pe *PatchEmbed) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	checkSize("patch_embed", pe.InSize(), x.Cols)
	pe.lastX = x
	if pe.buf == nil {
		pe.buf = make([]float64, pe.C*pe.P*pe.P)
		pe.dbuf = make([]float64, pe.C*pe.P*pe.P)
	}
	y := ensure(&pe.y, x.Rows, pe.OutSize())
	for r := 0; r < x.Rows; r++ {
		pe.forwardInto(x.Row(r), y.Row(r), pe.buf, true)
	}
	return y
}

func (pe *PatchEmbed) dropTrainState() {
	pe.lastX, pe.y, pe.dx, pe.buf, pe.dbuf = nil, nil, nil, nil, nil
}

// Backward accumulates projection gradients for unfrozen parameters and
// returns dX. Frozen weights need no patch gather at all.
func (pe *PatchEmbed) Backward(dy *tensor.Matrix) *tensor.Matrix {
	if pe.lastX == nil {
		panic("nn: PatchEmbed.Backward before TrainForward")
	}
	dx := ensure(&pe.dx, dy.Rows, pe.InSize())
	clear(dx.Data)
	buf, dbuf := pe.buf, pe.dbuf
	for r := 0; r < dy.Rows; r++ {
		xr := pe.lastX.Row(r)
		dyr := dy.Row(r)
		dxr := dx.Row(r)
		for t := 0; t < pe.T; t++ {
			if !pe.Wt.Frozen {
				pe.gather(xr, t, buf)
			}
			clear(dbuf)
			for d := 0; d < pe.D; d++ {
				g := dyr[t*pe.D+d]
				//lint:ignore floatcmp exact-zero skip: adding a zero gradient term is a bit-exact no-op
				if g == 0 {
					continue
				}
				if !pe.B.Frozen {
					pe.B.G.Data[d] += g
				}
				wr := pe.Wt.W.Row(d)
				if pe.Wt.Frozen {
					for i, w := range wr {
						dbuf[i] += g * w
					}
					continue
				}
				wg := pe.Wt.G.Row(d)
				for i := range buf {
					wg[i] += g * buf[i]
					dbuf[i] += g * wr[i]
				}
			}
			pe.scatter(dxr, t, dbuf)
		}
	}
	return dx
}

// JVP embeds the value with bias and each tangent column without bias.
func (pe *PatchEmbed) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	y := pe.forwardOne(x, true)
	jy := tensor.New(pe.OutSize(), j.Cols)
	col := make([]float64, pe.InSize())
	for t := 0; t < j.Cols; t++ {
		for i := range col {
			col[i] = j.At(i, t)
		}
		jy.SetCol(t, pe.forwardOne(col, false))
	}
	return y, jy
}

// Params returns the projection and bias parameters.
func (pe *PatchEmbed) Params() []*Param { return []*Param{pe.Wt, pe.B} }
