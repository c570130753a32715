package train

import (
	"math/rand"
	"testing"

	"dnnlock/internal/tensor"
)

func randMat(rows, cols int, rng *rand.Rand) *tensor.Matrix {
	m := tensor.New(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64() * 3
	}
	return m
}

// TestMSEIntoMatchesMSE pins the pooled variant to the allocating one.
func TestMSEIntoMatchesMSE(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	pred, target := randMat(9, 5, rng), randMat(9, 5, rng)
	wantLoss, wantGrad := MSE(pred, target)
	grad := tensor.GetMatrix(9, 5)
	defer tensor.PutMatrix(grad)
	loss := MSEInto(grad, pred, target)
	if loss != wantLoss {
		t.Fatalf("loss %v != %v", loss, wantLoss)
	}
	for i := range grad.Data {
		if grad.Data[i] != wantGrad.Data[i] {
			t.Fatalf("grad %d: %v != %v", i, grad.Data[i], wantGrad.Data[i])
		}
	}
}

// TestMSESoftmaxMatchesUnfusedReference checks the fused softmax-MSE loss
// against the explicit three-step reference (softmax rows, MSE, Jacobian
// pullback) with exact float comparison — the fusion reorders nothing.
func TestMSESoftmaxMatchesUnfusedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(8), 2+rng.Intn(7)
		pred, target := randMat(rows, cols, rng), randMat(rows, cols, rng)
		predSave := pred.Clone()

		// Reference path, as fitSoft computed it before the fusion.
		probs := pred.Clone()
		for r := 0; r < probs.Rows; r++ {
			row := probs.Row(r)
			tensor.SoftmaxInto(row, row)
		}
		wantLoss, wantGrad := MSE(probs, target)
		for r := 0; r < wantGrad.Rows; r++ {
			p := probs.Row(r)
			g := wantGrad.Row(r)
			dot := tensor.Dot(p, g)
			for i := range g {
				g[i] = p[i] * (g[i] - dot)
			}
		}

		grad := tensor.New(rows, cols)
		loss := MSESoftmaxInto(grad, pred, target, make([]float64, cols))
		if loss != wantLoss {
			t.Fatalf("trial %d: loss %v != %v", trial, loss, wantLoss)
		}
		for i := range grad.Data {
			if grad.Data[i] != wantGrad.Data[i] {
				t.Fatalf("trial %d: grad %d: %v != %v", trial, i, grad.Data[i], wantGrad.Data[i])
			}
		}
		for i := range pred.Data {
			if pred.Data[i] != predSave.Data[i] {
				t.Fatalf("trial %d: MSESoftmaxInto mutated its input at %d", trial, i)
			}
		}
	}
}
