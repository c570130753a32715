package nn

import (
	"math/rand"
	"sync"
	"testing"

	"dnnlock/internal/tensor"
)

// sameValues reports whether a and b hold exactly the same shape and values.
func sameValues(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if v != b.Data[i] {
			return false
		}
	}
	return true
}

// setRandomBits gives every flip of net random hard key bits.
func setRandomBits(net *Network, rng *rand.Rand) {
	for _, f := range net.Flips() {
		for j := 0; j < f.N; j++ {
			f.SetBit(j, rng.Intn(2) == 0)
		}
	}
}

// TestFrozenCloneMatchesTrainableClone is the frozen-weight property test:
// on every fuzzed architecture, a CloneForKeys clone (frozen weight views,
// dX-only backward) and a Clone (trainable deep copy, full backward) give
// exactly the same training-pass outputs, input gradients and soft flip
// gradients over consecutive minibatches of different sizes, which
// exercises the reslicing of every layer's owned buffers. The frozen clone
// must share the source's weights, own no gradient buffers, and leave the
// source's gradients untouched.
func TestFrozenCloneMatchesTrainableClone(t *testing.T) {
	rng := rand.New(rand.NewSource(604))
	for ni, net := range fuzzedSliceNets(rng) {
		setRandomBits(net, rng)
		frozen, trainable := net.CloneForKeys(), net.Clone()
		for pi, p := range frozen.Params() {
			src := net.Params()[pi]
			if !p.Frozen || p.G != nil || p.W != src.W {
				t.Fatalf("net %d param %s: want a frozen view of the source weights", ni, p.Name)
			}
		}
		var softF, softT []*Param
		for fi, f := range frozen.Flips() {
			idxs := rng.Perm(f.N)[:1+rng.Intn(f.N)]
			gated := rng.Intn(2) == 0
			pf := f.Soften(idxs, gated)
			pt := trainable.Flips()[fi].Soften(idxs, gated)
			for i := range pf.W.Data {
				pf.W.Data[i] = 0.3 * rng.NormFloat64()
			}
			copy(pt.W.Data, pf.W.Data)
			softF, softT = append(softF, pf), append(softT, pt)
		}
		for _, rows := range []int{7, 3, 9} {
			x := randBatch(rng, rows, net.InSize())
			dy := randBatch(rng, rows, net.OutSize())
			if !sameValues(frozen.TrainForward(x), trainable.TrainForward(x)) {
				t.Fatalf("net %d batch %d: TrainForward outputs differ", ni, rows)
			}
			if !sameValues(frozen.TrainBackward(dy), trainable.TrainBackward(dy)) {
				t.Fatalf("net %d batch %d: input gradients differ", ni, rows)
			}
			for i := range softF {
				for j, g := range softF[i].G.Data {
					if g != softT[i].G.Data[j] {
						t.Fatalf("net %d batch %d: soft grad %d/%d: %v vs %v",
							ni, rows, i, j, g, softT[i].G.Data[j])
					}
				}
			}
			frozen.ZeroGrad() // safe on frozen views: only the soft params hold gradients
			trainable.ZeroGrad()
		}
		for _, p := range net.Params() {
			for _, g := range p.G.Data {
				if g != 0 {
					t.Fatalf("net %d: training the frozen clone wrote %s's source gradient", ni, p.Name)
				}
			}
		}
	}
}

// TestCloneForKeysConcurrentTraining clones one network from two goroutines
// and runs the training passes on each clone concurrently; every pass must
// match a serial pass on a third clone exactly. Run under -race: clones
// share only the read-only weights.
func TestCloneForKeysConcurrentTraining(t *testing.T) {
	rng := rand.New(rand.NewSource(605))
	for ni, net := range fuzzedSliceNets(rng) {
		setRandomBits(net, rng)
		x := randBatch(rng, 5, net.InSize())
		dy := randBatch(rng, 5, net.OutSize())
		ref := net.CloneForKeys()
		wantY := ref.TrainForward(x).Clone()
		wantDX := ref.TrainBackward(dy).Clone()
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				c := net.CloneForKeys()
				for rep := 0; rep < 10; rep++ {
					if !sameValues(c.TrainForward(x), wantY) {
						t.Errorf("net %d goroutine %d: TrainForward diverged", ni, g)
						return
					}
					if !sameValues(c.TrainBackward(dy), wantDX) {
						t.Errorf("net %d goroutine %d: TrainBackward diverged", ni, g)
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}

// TestDropTrainStateForgetsBuffers checks that DropTrainState leaves no
// training state behind (a Backward without a fresh TrainForward panics)
// and that training afterwards gives the same results as before.
func TestDropTrainStateForgetsBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	for ni, net := range fuzzedSliceNets(rng) {
		x := randBatch(rng, 4, net.InSize())
		dy := randBatch(rng, 4, net.OutSize())
		c := net.CloneForKeys()
		want := c.TrainForward(x).Clone()
		wantDX := c.TrainBackward(dy).Clone()
		c.DropTrainState()
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("net %d: Backward after DropTrainState did not panic", ni)
				}
			}()
			c.TrainBackward(dy)
		}()
		if !sameValues(c.TrainForward(x), want) || !sameValues(c.TrainBackward(dy), wantDX) {
			t.Fatalf("net %d: training after DropTrainState diverged", ni)
		}
	}
}
