package core

import (
	"math"
	"math/rand"

	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
	"dnnlock/internal/train"
)

// fitSoft32 is the float32 speed tier of fitSoft (Config.TrainPrecision ==
// Float32, DESIGN.md §13). It mirrors the exact loop — same slicing, same
// Adam optimizer on the same float64 soft coefficient masters, same
// shuffled minibatch schedule from the same rng draws, same stop rules
// reading the same float64 coefficients — but runs the suffix
// forward/backward and the loss in float32 through nn.Engine32, with every
// workspace carved from one Arena32 that is released wholesale when the
// fit returns.
//
// What differs from the exact tier is only the rounding of the gradient
// values flowing into the masters, so the fitted trajectory (losses,
// epochs-to-stop) may drift while the recovered key bits agree; the
// precision-parity property test in decrypt_prop_test.go enforces the
// agreement on every fuzzed architecture. The rng consumption pattern is
// identical by construction (one Perm plus one Shuffle per epoch), and the
// engine is built before the first draw, so a false return — some suffix
// layer has no float32 shadow — leaves the rng untouched for the exact
// fallback.
func fitSoft32(sl *nn.Slice, sites []softSite, x, y *tensor.Matrix, cfg Config,
	rng *rand.Rand, softmax bool, epochCb func(epoch int, loss float64) bool) bool {

	ar := tensor.GetArena32()
	eng, ok := nn.NewEngine32(sl, ar)
	if !ok {
		tensor.PutArena32(ar)
		return false
	}
	defer tensor.PutArena32(ar)

	softParams := make([]*nn.Param, len(sites))
	for i, s := range sites {
		softParams[i] = s.param
	}
	opt := train.NewAdam(cfg.LearnRate)
	n := x.Rows
	perm := rng.Perm(n)

	// Frozen-prefix activation cache, evaluated exactly once in float64 and
	// demoted once — the prefix is not retrained, so there is no reason to
	// re-run it at reduced width.
	h := sl.PrefixForward(x)
	if h != x {
		defer tensor.PutMatrix(h)
	}
	h32 := ar.Mat(h.Rows, h.Cols)
	tensor.ConvertInto(h32, h)
	y32 := ar.Mat(y.Rows, y.Cols)
	tensor.ConvertInto(y32, y)

	// Full-size minibatch workspaces; partial batches reslice them. The
	// batch loop visits full batches first, so the engine's lazily-sized
	// internal buffers are carved at their maximum on the first batch and
	// the epoch loop allocates nothing.
	batch := cfg.LearnBatch
	if batch > n {
		batch = n
	}
	bhBuf := ar.Mat(batch, h32.Cols)
	byBuf := ar.Mat(batch, y32.Cols)
	gradBuf := ar.Mat(batch, y32.Cols)
	smScratch := ar.Vec(y32.Cols)

	bestLoss := math.Inf(1)
	stall := 0
	for epoch := 0; epoch < cfg.LearnEpochs; epoch++ {
		rng.Shuffle(n, func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		epochLoss := 0.0
		batches := 0
		for start := 0; start < n; start += cfg.LearnBatch {
			end := start + cfg.LearnBatch
			if end > n {
				end = n
			}
			m := end - start
			bh := reslice(bhBuf, m)
			by := reslice(byBuf, m)
			tensor.GatherRowsInto(bh, h32, perm[start:end])
			tensor.GatherRowsInto(by, y32, perm[start:end])
			pred := eng.Forward(bh)
			grad := reslice(gradBuf, m)
			var loss float64
			if softmax {
				loss = train.MSESoftmax32(grad, pred, by, smScratch)
			} else {
				loss = train.MSEInto32(grad, pred, by)
			}
			eng.Backward(grad)
			opt.Step(softParams) // zeroes the soft gradients it consumes
			epochLoss += loss
			batches++
		}
		epochLoss /= float64(batches)
		if epochCb != nil && !epochCb(epoch, epochLoss) {
			return true
		}
		// Stop rule i: every coefficient is confident.
		allConfident := true
		for _, s := range sites {
			for _, k := range s.flip.SoftCoeffs() {
				if math.Abs(k) < cfg.ConfidenceThreshold {
					allConfident = false
					break
				}
			}
		}
		if allConfident {
			return true
		}
		// Stop rule ii (attacker-observable): loss plateau.
		if epochLoss < bestLoss-1e-12 {
			bestLoss = epochLoss
			stall = 0
		} else {
			stall++
			if stall >= cfg.PlateauEpochs {
				return true
			}
		}
	}
	return true
}
