package nn

import (
	"math/rand"
	"testing"

	"dnnlock/internal/tensor"
)

// fuzzedSliceNets builds randomized architectures of every family the
// evaluation locks — MLP chains, conv stacks, residual blocks, and a ReLU
// attention transformer — so the slice equivalence property is exercised on
// the same layer zoo the attack meets.
func fuzzedSliceNets(rng *rand.Rand) []*Network {
	var nets []*Network

	// Fuzzed MLPs: 2–3 locked hidden layers with random widths.
	for i := 0; i < 3; i++ {
		in := 3 + rng.Intn(5)
		var layers []Layer
		prev := in
		for d := 0; d < 2+rng.Intn(2); d++ {
			h := 4 + rng.Intn(6)
			layers = append(layers, NewDense(prev, h).InitHe(rng), NewFlip(h), NewReLU(h))
			prev = h
		}
		layers = append(layers, NewDense(prev, 2+rng.Intn(3)).InitHe(rng))
		nets = append(nets, NewNetwork(layers...))
	}

	// Fuzzed conv stack: conv-flip-relu-pool, flatten, locked dense head.
	for i := 0; i < 2; i++ {
		hw := 6 + 2*rng.Intn(2) // 6 or 8
		ch := 2 + rng.Intn(2)
		conv := NewConv2D(1, hw, hw, ch, 3, 1, 0).InitHe(rng)
		pool := NewMaxPool2D(ch, conv.OutH, conv.OutW, 2, 2)
		hidden := 5 + rng.Intn(5)
		nets = append(nets, NewNetwork(
			conv, NewFlip(conv.OutSize()), NewReLU(conv.OutSize()), pool,
			NewFlatten(pool.OutSize()),
			NewDense(pool.OutSize(), hidden).InitHe(rng), NewFlip(hidden), NewReLU(hidden),
			NewDense(hidden, 3).InitHe(rng),
		))
	}

	// Residual net: locked stem plus a basic block with flips inside the
	// residual body (incl. an ungated flip feeding the residual add).
	{
		stem := NewConv2D(1, 6, 6, 3, 3, 1, 1).InitHe(rng)
		c1 := NewConv2D(3, 6, 6, 3, 3, 1, 1).InitHe(rng)
		c2 := NewConv2D(3, 6, 6, 3, 3, 1, 1).InitHe(rng)
		body := []Layer{
			c1, NewFlip(c1.OutSize()), NewReLU(c1.OutSize()),
			c2, NewFlip(c2.OutSize()),
		}
		nets = append(nets, NewNetwork(
			stem, NewFlip(stem.OutSize()), NewReLU(stem.OutSize()),
			NewResidual(body, nil), NewReLU(c2.OutSize()),
			NewGlobalAvgPool(3, 6, 6),
			NewDense(3, 2).InitHe(rng),
		))
	}

	// One-block ReLU V-Transformer with the flip on the MLP hidden layer.
	{
		const t, d, dh, dm = 4, 6, 4, 8
		pe := NewPatchEmbed(1, 8, 8, 4, d).InitXavier(rng)
		attn := NewResidual([]Layer{NewAttentionReLU(t, d, dh).InitXavier(rng)}, nil)
		mlp := NewResidual([]Layer{
			NewTokenDense(t, d, dm).InitHe(rng),
			NewFlip(t * dm),
			NewReLU(t * dm),
			NewTokenDense(t, dm, d).InitHe(rng),
		}, nil)
		nets = append(nets, NewNetwork(
			pe, attn, mlp, NewMeanTokens(t, d), NewDense(d, 3).InitHe(rng),
		))
	}
	return nets
}

// softenFrom puts a few random indices of every flip site >= first into
// soft mode (random gating form, random hard signs elsewhere) and returns
// the soft parameters.
func softenFrom(net *Network, first int, rng *rand.Rand) []*Param {
	var params []*Param
	for _, f := range net.Flips() {
		for j := 0; j < f.N; j++ {
			f.SetBit(j, rng.Intn(2) == 0)
		}
		if f.SiteID < first {
			continue
		}
		k := 1 + rng.Intn(f.N)
		idxs := rng.Perm(f.N)[:k]
		params = append(params, f.Soften(idxs, rng.Intn(2) == 0))
	}
	return params
}

// TestSplitPrefixHoldsOnlyEarlierSites checks the structural invariant the
// cache correctness rests on: every flip in the prefix of Split(s) has a
// site ID strictly below s, so it stays hard/frozen during the fit.
func TestSplitPrefixHoldsOnlyEarlierSites(t *testing.T) {
	rng := rand.New(rand.NewSource(601))
	for ni, net := range fuzzedSliceNets(rng) {
		for s := 0; s < net.NumFlipSites(); s++ {
			sl := net.Split(s)
			for _, l := range net.Layers[:sl.Cut()] {
				for pre := 0; pre < net.NumFlipSites(); pre++ {
					if hasSite(l, pre, -1) && pre >= s {
						t.Fatalf("net %d: Split(%d) left site %d in the prefix", ni, s, pre)
					}
				}
			}
			if !hasSite(net.Layers[sl.Cut()], s, -1) && sl.Cut() != 0 {
				// The cut layer itself must contain the split site.
				t.Fatalf("net %d: Split(%d) cut layer %d misses the site", ni, s, sl.Cut())
			}
		}
	}
}

// TestSlicedForwardBackwardEquivalence is the slice property test: for every
// fuzzed architecture and every slice point, the sliced forward pass
// (one-shot frozen prefix + suffix TrainForward) and the boundary-stopped
// backward pass produce exactly the same predictions and soft-coefficient
// gradients as the full-network pass. Comparison is exact float equality —
// the prefix is deterministic under frozen weights, so there is no
// tolerance to hide behind.
func TestSlicedForwardBackwardEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(602))
	for ni, net := range fuzzedSliceNets(rng) {
		for s := 0; s < net.NumFlipSites(); s++ {
			params := softenFrom(net, s, rng)
			for _, p := range params {
				for i := range p.W.Data {
					p.W.Data[i] = rng.NormFloat64() * 0.3
				}
			}
			x := tensor.New(7, net.InSize())
			for i := range x.Data {
				x.Data[i] = rng.NormFloat64()
			}
			dy := tensor.New(7, net.OutSize())
			for i := range dy.Data {
				dy.Data[i] = rng.NormFloat64()
			}

			// Full pass.
			full := net.FullSlice()
			predFull := full.TrainForward(x).Clone()
			full.Backward(dy)
			gradsFull := make([][]float64, len(params))
			for i, p := range params {
				gradsFull[i] = append([]float64(nil), p.G.Data...)
			}
			net.ZeroGrad()

			// Sliced pass over the cached prefix activations.
			sl := net.Split(s)
			h := sl.PrefixForward(x)
			if h != x {
				defer tensor.PutMatrix(h)
			}
			predSliced := sl.TrainForward(h)
			for i := range predFull.Data {
				if predFull.Data[i] != predSliced.Data[i] {
					t.Fatalf("net %d split %d: prediction %d diverged: %v vs %v",
						ni, s, i, predFull.Data[i], predSliced.Data[i])
				}
			}
			sl.Backward(dy)
			for pi, p := range params {
				for i, g := range p.G.Data {
					if g != gradsFull[pi][i] {
						t.Fatalf("net %d split %d: soft grad %d/%d diverged: %v vs %v",
							ni, s, pi, i, g, gradsFull[pi][i])
					}
				}
			}
			net.ZeroGrad()
			for _, f := range net.Flips() {
				f.Harden()
			}
		}
	}
}

// TestPrefixForwardBatchIndependence checks the cache's key soundness
// property directly: a row's prefix activation is identical whether it was
// evaluated alone, inside a small batch, or inside the full query set.
func TestPrefixForwardBatchIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(603))
	for ni, net := range fuzzedSliceNets(rng) {
		last := net.NumFlipSites() - 1
		sl := net.Split(last)
		if sl.Cut() == 0 {
			continue
		}
		x := tensor.New(9, net.InSize())
		for i := range x.Data {
			x.Data[i] = rng.NormFloat64()
		}
		whole := sl.PrefixForward(x)
		for r := 0; r < x.Rows; r++ {
			one := tensor.FromSlice(1, x.Cols, x.Row(r))
			hr := sl.PrefixForward(one)
			for c, v := range hr.Row(0) {
				if v != whole.At(r, c) {
					t.Fatalf("net %d row %d col %d: batch-dependent prefix value", ni, r, c)
				}
			}
			tensor.PutMatrix(hr)
		}
		tensor.PutMatrix(whole)
	}
}

// TestSliceZeroAllocMinibatch: on a CloneForKeys clone with every flip site
// softened, once the first (full) minibatch has sized every layer's
// buffers, the fit's steady state — a full and a partial minibatch through
// the sliced forward and backward passes — allocates nothing. Kernels run
// serially here; the worker-pool fan-out allocates its own task closures.
func TestSliceZeroAllocMinibatch(t *testing.T) {
	defer tensor.SetParallelism(tensor.Parallelism())
	tensor.SetParallelism(1)
	rng := rand.New(rand.NewSource(607))
	for ni, src := range fuzzedSliceNets(rng) {
		net := src.CloneForKeys()
		params := softenFrom(net, 0, rng)
		sl := net.Split(0)
		x := randBatch(rng, 12, net.InSize())
		h := sl.PrefixForward(x)
		if h != x {
			defer tensor.PutMatrix(h)
		}
		full := tensor.FromSlice(8, h.Cols, h.Data[:8*h.Cols])
		part := tensor.FromSlice(4, h.Cols, h.Data[8*h.Cols:])
		dyFull := randBatch(rng, 8, net.OutSize())
		dyPart := randBatch(rng, 4, net.OutSize())
		minibatches := func() {
			sl.TrainForward(full)
			sl.Backward(dyFull)
			sl.TrainForward(part)
			sl.Backward(dyPart)
			for _, p := range params {
				p.ZeroGrad()
			}
		}
		minibatches()
		if allocs := testing.AllocsPerRun(10, minibatches); allocs > 0 {
			t.Errorf("net %d: steady-state minibatches allocate %.1f times", ni, allocs)
		}
	}
}
