package train

import (
	"math"
	"math/rand"
	"testing"

	"dnnlock/internal/dataset"
	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

func TestSoftmaxCrossEntropyGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	logits := tensor.New(3, 4)
	for i := range logits.Data {
		logits.Data[i] = rng.NormFloat64()
	}
	labels := []int{0, 2, 3}
	_, grad := SoftmaxCrossEntropy(logits, labels)
	const h = 1e-6
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + h
		lp, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig - h
		lm, _ := SoftmaxCrossEntropy(logits, labels)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-5 {
			t.Fatalf("grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestMSEGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	pred := tensor.New(2, 3)
	target := tensor.New(2, 3)
	for i := range pred.Data {
		pred.Data[i] = rng.NormFloat64()
		target.Data[i] = rng.NormFloat64()
	}
	loss, grad := MSE(pred, target)
	if loss < 0 {
		t.Fatal("negative MSE")
	}
	const h = 1e-6
	for i := range pred.Data {
		orig := pred.Data[i]
		pred.Data[i] = orig + h
		lp, _ := MSE(pred, target)
		pred.Data[i] = orig - h
		lm, _ := MSE(pred, target)
		pred.Data[i] = orig
		num := (lp - lm) / (2 * h)
		if math.Abs(num-grad.Data[i]) > 1e-6 {
			t.Fatalf("MSE grad[%d] = %v, numeric %v", i, grad.Data[i], num)
		}
	}
}

func TestMSEZeroOnIdentical(t *testing.T) {
	a := tensor.FromSlice(1, 2, []float64{1, 2})
	loss, grad := MSE(a, a.Clone())
	if loss != 0 || grad.MaxAbs() != 0 {
		t.Fatal("identical matrices should give zero loss/grad")
	}
}

func TestAccuracy(t *testing.T) {
	logits := tensor.FromSlice(3, 2, []float64{
		2, 1, // pred 0
		0, 5, // pred 1
		3, 4, // pred 1
	})
	if got := Accuracy(logits, []int{0, 1, 0}); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("Accuracy = %v", got)
	}
	if Accuracy(tensor.New(0, 2), nil) != 0 {
		t.Fatal("empty accuracy should be 0")
	}
}

// linearlySeparableData builds a 2-class dataset split by a hyperplane.
func linearlySeparableData(rng *rand.Rand, n, dim int) (*tensor.Matrix, []int) {
	w := make([]float64, dim)
	for i := range w {
		w[i] = rng.NormFloat64()
	}
	x := tensor.New(n, dim)
	y := make([]int, n)
	for i := 0; i < n; i++ {
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64())
		}
		if tensor.Dot(x.Row(i), w) > 0 {
			y[i] = 1
		}
	}
	return x, y
}

func TestSGDLearnsLinearProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, y := linearlySeparableData(rng, 300, 6)
	net := nn.NewNetwork(nn.NewDense(6, 16).InitHe(rng), nn.NewReLU(16), nn.NewDense(16, 2).InitHe(rng))
	res := Fit(net, x, y, x, y, Config{Epochs: 30, BatchSize: 32, Optimizer: NewSGD(0.1, 0.9), Seed: 1, TargetAccuracy: 0.99})
	if res.TestAccuracy < 0.97 {
		t.Fatalf("SGD failed to learn: acc %.3f", res.TestAccuracy)
	}
}

func TestAdamLearnsLinearProblem(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, y := linearlySeparableData(rng, 300, 6)
	net := nn.NewNetwork(nn.NewDense(6, 16).InitHe(rng), nn.NewReLU(16), nn.NewDense(16, 2).InitHe(rng))
	res := Fit(net, x, y, x, y, Config{Epochs: 30, BatchSize: 32, Optimizer: NewAdam(0.01), Seed: 1, TargetAccuracy: 0.99})
	if res.TestAccuracy < 0.97 {
		t.Fatalf("Adam failed to learn: acc %.3f", res.TestAccuracy)
	}
}

func TestFrozenParamsUntouched(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	d := nn.NewDense(3, 2).InitHe(rng)
	net := nn.NewNetwork(d)
	for _, p := range net.Params() {
		p.Frozen = true
	}
	before := d.W.W.Clone()
	x, y := linearlySeparableData(rng, 40, 3)
	Fit(net, x, y, x, y, Config{Epochs: 2, BatchSize: 8, Optimizer: NewAdam(0.1), Seed: 1})
	if !tensor.Equal(before, d.W.W, 0) {
		t.Fatal("frozen parameters changed during training")
	}
}

func TestTargetAccuracyStopsEarly(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	x, y := linearlySeparableData(rng, 200, 4)
	net := nn.NewNetwork(nn.NewDense(4, 12).InitHe(rng), nn.NewReLU(12), nn.NewDense(12, 2).InitHe(rng))
	res := Fit(net, x, y, x, y, Config{Epochs: 100, BatchSize: 16, Optimizer: NewAdam(0.02), Seed: 1, TargetAccuracy: 0.9})
	if res.Epochs == 100 {
		t.Fatal("early stopping never triggered")
	}
}

func TestFitOnSyntheticDigitsMLP(t *testing.T) {
	if testing.Short() {
		t.Skip("training test")
	}
	rng := rand.New(rand.NewSource(7))
	d := dataset.Digits(1200, 11)
	tr, te := d.Split(0.8)
	net := nn.NewNetwork(
		nn.NewDense(784, 64).InitHe(rng), nn.NewReLU(64),
		nn.NewDense(64, 10).InitHe(rng),
	)
	res := Fit(net, tr.X, tr.Y, te.X, te.Y, Config{Epochs: 30, BatchSize: 32, Optimizer: NewAdam(0.003), Seed: 2, TargetAccuracy: 0.9})
	// The digits stand-in hides a faint class signal under a shared
	// background (DESIGN.md §4), so a small MLP lands well below the
	// paper-size model's ~94% — but far above 10-class chance.
	if res.TestAccuracy < 0.75 {
		t.Fatalf("MLP on synthetic digits only reached %.3f", res.TestAccuracy)
	}
}

func TestEvaluateMatchesAccuracy(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := linearlySeparableData(rng, 300, 5) // > one chunk
	net := nn.NewNetwork(nn.NewDense(5, 2).InitHe(rng))
	logits := net.ForwardBatch(x)
	if math.Abs(Evaluate(net, x, y)-Accuracy(logits, y)) > 1e-12 {
		t.Fatal("Evaluate disagrees with Accuracy")
	}
}

// TestOptimizersSkipFrozenCloneParams checks that both optimizers accept
// the frozen weight views of a CloneForKeys clone, which have no gradient
// buffer: a step leaves the shared weights untouched and does not panic.
func TestOptimizersSkipFrozenCloneParams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	d := nn.NewDense(3, 2).InitHe(rng)
	clone := nn.NewNetwork(d).CloneForKeys()
	before := d.W.W.Clone()
	for _, opt := range []Optimizer{NewSGD(0.1, 0.9), NewAdam(0.1)} {
		clone.ZeroGrad()
		opt.Step(clone.Params())
	}
	if !tensor.Equal(before, d.W.W, 0) {
		t.Fatal("an optimizer step moved frozen clone weights")
	}
}

// TestFitDropsTrainState checks that Fit leaves no training state in the
// network it trained: a backward pass needs a fresh TrainForward.
func TestFitDropsTrainState(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x, y := linearlySeparableData(rng, 40, 3)
	net := nn.NewNetwork(nn.NewDense(3, 4).InitHe(rng), nn.NewReLU(4), nn.NewDense(4, 2).InitHe(rng))
	Fit(net, x, y, x, y, Config{Epochs: 1, BatchSize: 8, Optimizer: NewAdam(0.01), Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("TrainBackward after Fit found cached training state")
		}
	}()
	net.TrainBackward(tensor.New(1, 2))
}
