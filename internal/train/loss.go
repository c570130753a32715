// Package train provides the optimization substrate used to (1) train
// HPNN-locked models as functions of their keys and (2) drive the paper's
// learning-based attack: losses, SGD/Adam optimizers, and a mini-batch
// trainer.
package train

import (
	"math"

	"dnnlock/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean cross-entropy between softmax(logits)
// and the integer labels, and the gradient w.r.t. the logits.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (loss float64, grad *tensor.Matrix) {
	if logits.Rows != len(labels) {
		panic("train: label count mismatch")
	}
	n := logits.Rows
	grad = tensor.New(logits.Rows, logits.Cols)
	for r := 0; r < n; r++ {
		// Softmax straight into the gradient row, then rescale in place.
		gr := tensor.SoftmaxInto(grad.Row(r), logits.Row(r))
		y := labels[r]
		loss += -math.Log(math.Max(gr[y], 1e-300))
		for c := range gr {
			gr[c] /= float64(n)
		}
		gr[y] -= 1 / float64(n)
	}
	return loss / float64(n), grad
}

// MSE computes the mean squared error between pred and target matrices and
// the gradient w.r.t. pred. This is the loss of the learning-based attack
// (§4.1): MSE between the white-box logits and the oracle logits.
func MSE(pred, target *tensor.Matrix) (loss float64, grad *tensor.Matrix) {
	grad = tensor.New(pred.Rows, pred.Cols)
	return MSEInto(grad, pred, target), grad
}

// MSEInto is MSE writing the gradient into a caller-provided matrix
// (typically a pooled workspace), so per-minibatch hot loops allocate
// nothing.
func MSEInto(grad, pred, target *tensor.Matrix) (loss float64) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("train: MSE shape mismatch")
	}
	if grad.Rows != pred.Rows || grad.Cols != pred.Cols {
		panic("train: MSE gradient shape mismatch")
	}
	n := float64(len(pred.Data))
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n
}

// MSESoftmaxInto computes the MSE between softmax(pred) rows and target,
// and writes the gradient w.r.t. the logits pred into grad — the loss the
// learning attack uses against an oracle that exposes softmax probabilities
// (§2.3). The softmax map, the squared error, and the Jacobian pullback
// dL/dz_i = p_i·(dL/dp_i − Σ_j p_j·dL/dp_j) are fused into one pass per
// row, with p (length pred.Cols) as the softmax scratch row; pred itself is
// left untouched, and nothing is allocated.
//
// The arithmetic reproduces the unfused reference (SoftmaxInto, MSE, then
// the per-row pullback) term for term in the same order, so results are
// identical, not merely close.
func MSESoftmaxInto(grad, pred, target *tensor.Matrix, p []float64) (loss float64) {
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
	for r := 0; r < pred.Rows; r++ {
		tensor.SoftmaxInto(p, pred.Row(r))
		gr := grad.Row(r)
		tr := target.Row(r)
		dot := 0.0
		for c, pv := range p {
			d := pv - tr[c]
			loss += d * d
			g := 2 * d / n
			gr[c] = g
			dot += pv * g
		}
		for c := range gr {
			gr[c] = p[c] * (gr[c] - dot)
		}
	}
	return loss / n
}

// Accuracy returns the fraction of rows whose argmax matches the label.
func Accuracy(logits *tensor.Matrix, labels []int) float64 {
	if logits.Rows == 0 {
		return 0
	}
	correct := 0
	for r := 0; r < logits.Rows; r++ {
		if tensor.ArgMax(logits.Row(r)) == labels[r] {
			correct++
		}
	}
	return float64(correct) / float64(logits.Rows)
}
