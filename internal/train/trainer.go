package train

import (
	"fmt"
	"io"
	"math/rand"

	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

// Config controls a training run.
type Config struct {
	Epochs    int
	BatchSize int
	Optimizer Optimizer
	Seed      int64
	Log       io.Writer // nil disables progress output
	// TargetAccuracy stops training early once the evaluation accuracy
	// reaches this level (0 disables).
	TargetAccuracy float64
}

// Result summarizes a training run.
type Result struct {
	Epochs        int
	FinalLoss     float64
	TrainAccuracy float64
	TestAccuracy  float64
}

// Fit trains net on (x, y) classification data with softmax cross-entropy,
// evaluating on (xTest, yTest) after each epoch. The network's training
// state is dropped on return, so a trained network keeps no per-minibatch
// buffers.
func Fit(net *nn.Network, x *tensor.Matrix, y []int, xTest *tensor.Matrix, yTest []int, cfg Config) Result {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 32
	}
	defer net.DropTrainState()
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := x.Rows
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	var res Result
	// One reusable minibatch workspace for the whole run; partial batches
	// reslice it. (The network caches only forward activations per step, so
	// refilling the buffer between steps is safe.)
	bxBuf := tensor.GetMatrix(cfg.BatchSize, x.Cols)
	defer tensor.PutMatrix(bxBuf)
	byBuf := make([]int, cfg.BatchSize)
	params := net.Params() // layer set is fixed for the whole run
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		epochLoss := 0.0
		batches := 0
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			bx := tensor.FromSlice(end-start, x.Cols, bxBuf.Data[:(end-start)*x.Cols])
			by := byBuf[:end-start]
			for i := start; i < end; i++ {
				bx.SetRow(i-start, x.Row(perm[i]))
				by[i-start] = y[perm[i]]
			}
			logits := net.TrainForward(bx)
			loss, grad := SoftmaxCrossEntropy(logits, by)
			net.TrainBackward(grad)
			cfg.Optimizer.Step(params)
			epochLoss += loss
			batches++
		}
		res.Epochs = epoch + 1
		res.FinalLoss = epochLoss / float64(batches)
		res.TestAccuracy = Evaluate(net, xTest, yTest)
		if cfg.Log != nil {
			fmt.Fprintf(cfg.Log, "epoch %3d  loss %.4f  test acc %.4f\n", epoch+1, res.FinalLoss, res.TestAccuracy)
		}
		if cfg.TargetAccuracy > 0 && res.TestAccuracy >= cfg.TargetAccuracy {
			break
		}
	}
	res.TrainAccuracy = Evaluate(net, x, y)
	return res
}

// Evaluate returns classification accuracy of net on (x, y), batching to
// bound memory.
func Evaluate(net *nn.Network, x *tensor.Matrix, y []int) float64 {
	if x.Rows == 0 {
		return 0
	}
	const chunk = 256
	correct := 0
	for start := 0; start < x.Rows; start += chunk {
		end := start + chunk
		if end > x.Rows {
			end = x.Rows
		}
		// The chunk is a read-only row window of x: alias it, don't copy.
		bx := tensor.FromSlice(end-start, x.Cols, x.Data[start*x.Cols:end*x.Cols])
		logits := net.ForwardBatch(bx)
		for i := 0; i < logits.Rows; i++ {
			if tensor.ArgMax(logits.Row(i)) == y[start+i] {
				correct++
			}
		}
		if logits != bx {
			// bx aliases the dataset; recycling it would hand the dataset's
			// backing array out as a scratch buffer. Fresh logits are safe.
			tensor.PutMatrix(logits)
		}
	}
	return float64(correct) / float64(x.Rows)
}
