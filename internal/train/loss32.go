package train

import (
	"math"

	"dnnlock/internal/tensor"
)

// float32 loss kernels for the learning attack's speed tier (DESIGN.md
// §13). Predictions, targets and gradients live in float32; the scalar
// loss is accumulated in float64 so the plateau stop rule in core.fitSoft
// compares losses with the same resolution at either precision — a float32
// epoch-loss accumulator over thousands of minibatch terms would swamp the
// 1e-12 improvement threshold with rounding noise.

// MSEInto32 is the float32 MSEInto: mean squared error between pred and
// target with the gradient written into a caller-provided (typically
// arena-backed) matrix.
func MSEInto32(grad, pred, target *tensor.Mat[float32]) (loss float64) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("train: MSE shape mismatch")
	}
	if grad.Rows != pred.Rows || grad.Cols != pred.Cols {
		panic("train: MSE gradient shape mismatch")
	}
	n := float64(len(pred.Data))
	gn := float32(2 / n)
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += float64(d) * float64(d)
		grad.Data[i] = gn * d
	}
	return loss / n
}

// MSESoftmax32 is the float32 MSESoftmaxInto: MSE between softmax(pred)
// rows and target, with the logit gradient fused per row via the softmax
// Jacobian pullback dL/dz_i = p_i·(dL/dp_i − Σ_j p_j·dL/dp_j), written into
// a caller-provided gradient and scratch row so the epoch loop stays
// allocation-free; exp runs through float64 math.Exp (there is no float32
// libm in the stdlib) and is demoted afterwards.
func MSESoftmax32(grad, pred, target *tensor.Mat[float32], p []float32) (loss float64) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("train: MSESoftmax shape mismatch")
	}
	if grad.Rows != pred.Rows || grad.Cols != pred.Cols {
		panic("train: MSESoftmax gradient shape mismatch")
	}
	if len(p) != pred.Cols {
		panic("train: MSESoftmax scratch length mismatch")
	}
	n := float64(len(pred.Data))
	gn := float32(2 / n)
	for r := 0; r < pred.Rows; r++ {
		softmaxInto32(p, pred.Row(r))
		gr := grad.Row(r)
		tr := target.Row(r)
		var dot float32
		for c, pv := range p {
			d := pv - tr[c]
			loss += float64(d) * float64(d)
			g := gn * d
			gr[c] = g
			dot += pv * g
		}
		for c := range gr {
			gr[c] = p[c] * (gr[c] - dot)
		}
	}
	return loss / n
}

// softmaxInto32 computes a stable float32 softmax of v into dst.
func softmaxInto32(dst, v []float32) {
	mx := float32(math.Inf(-1))
	for _, x := range v {
		if x > mx {
			mx = x
		}
	}
	var sum float32
	for i, x := range v {
		e := float32(math.Exp(float64(x - mx)))
		dst[i] = e
		sum += e
	}
	inv := 1 / sum
	for i := range dst {
		dst[i] *= inv
	}
}
