package nn_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"dnnlock/internal/hpnn"
	"dnnlock/internal/models"
	"dnnlock/internal/nn"
	"dnnlock/internal/tensor"
)

// productMatrices builds the paper's product weight matrices (Formulas 2–3)
// of a sequential Dense/Flip/ReLU network in the linear region of x, from
// the weights: each Dense multiplies in its weights with tensor.MatMul,
// each Flip scales its rows by Signs, each ReLU masks its rows by the
// activation pattern at x. It returns Â at the input of every flip site
// and of every ReLU site, and the output map.
func productMatrices(t *testing.T, net *nn.Network, x []float64) (pre, relu []*tensor.Matrix, out *tensor.Matrix) {
	t.Helper()
	patterns := net.ForwardTrace(x).Patterns
	a := tensor.Identity(net.InSize())
	for _, l := range net.Layers {
		switch v := l.(type) {
		case *nn.Dense:
			a = tensor.MatMul(v.W.W, a)
		case *nn.Flip:
			pre = append(pre, a.Clone())
			for i, s := range v.Signs {
				row := a.Row(i)
				for c := range row {
					row[c] *= s
				}
			}
		case *nn.ReLU:
			relu = append(relu, a.Clone())
			a.MaskRows(patterns[v.SiteID])
		default:
			t.Fatalf("layer %s is outside Formulas 2–3", l.Name())
		}
	}
	return pre, relu, a
}

// sameBits reports whether two matrices agree in shape and in every bit.
func sameBits(a, b *tensor.Matrix) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float64bits(a.Data[i]) != math.Float64bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// lockedPoint is one input of a locked TinyMLP with the product weight
// matrices of its linear region there.
type lockedPoint struct {
	desc      string // lock, seed and point, for failure messages
	scheme    hpnn.Scheme
	net       *nn.Network
	lm        *hpnn.LockedModel
	key       hpnn.Key
	x         []float64
	pre, relu []*tensor.Matrix
	out       *tensor.Matrix
}

// forEachLockedPoint calls f at five random inputs of TinyMLPs locked with
// 8 key bits under each hard lock of forwardLocks, seeds 1–5.
func forEachLockedPoint(t *testing.T, f func(p lockedPoint)) {
	t.Helper()
	for _, lock := range forwardLocks {
		if lock.soft {
			continue
		}
		for seed := int64(1); seed <= 5; seed++ {
			rng := rand.New(rand.NewSource(seed))
			net := models.TinyMLP(rng)
			cfg := lock.cfg
			cfg.KeyBits, cfg.Rng = 8, rng
			lm, key := hpnn.Lock(net, cfg)
			for p := 0; p < 5; p++ {
				x := make([]float64, net.InSize())
				for i := range x {
					x[i] = rng.NormFloat64()
				}
				pre, relu, out := productMatrices(t, net, x)
				f(lockedPoint{
					desc:   fmt.Sprintf("%s seed %d point %d", lock.name, seed, p),
					scheme: cfg.Scheme, net: net, lm: lm, key: key, x: x,
					pre: pre, relu: relu, out: out,
				})
			}
		}
	}
}

// The four tests below pin Formulas 2–3 bit for bit: on TinyMLPs locked
// under Negation, BiasShift and Scaling, the JVP's Jacobian equals the
// product weight matrix built from the weights in every bit, so the attack
// takes Â from the JVP alone and every number stays what the
// product-matrix fold computed.

// TestPreActJacobianMatchesProductMatrixOnMLP checks the Jacobian at every
// flip site (PreActJacobian).
func TestPreActJacobianMatchesProductMatrixOnMLP(t *testing.T) {
	forEachLockedPoint(t, func(p lockedPoint) {
		for s, want := range p.pre {
			_, got := p.net.PreActJacobian(p.x, s)
			if !sameBits(got, want) {
				t.Fatalf("%s: flip site %d Jacobian differs from the product matrix", p.desc, s)
			}
			tensor.PutMatrix(got)
		}
	})
}

// TestReluInJacobianMatchesProductMatrixOnMLP checks the Jacobian at every
// ReLU site (ReluInJacobian), which includes the flip's signs.
func TestReluInJacobianMatchesProductMatrixOnMLP(t *testing.T) {
	forEachLockedPoint(t, func(p lockedPoint) {
		for r, want := range p.relu {
			_, got := p.net.ReluInJacobian(p.x, r)
			if !sameBits(got, want) {
				t.Fatalf("%s: ReLU site %d Jacobian differs from the product matrix", p.desc, r)
			}
			tensor.PutMatrix(got)
		}
	})
}

// TestOutputJacobianMatchesProductMatrixOnMLP checks the Jacobian of the
// output (OutputJacobian).
func TestOutputJacobianMatchesProductMatrixOnMLP(t *testing.T) {
	forEachLockedPoint(t, func(p lockedPoint) {
		_, got := p.net.OutputJacobian(p.x)
		if !sameBits(got, p.out) {
			t.Fatalf("%s: output Jacobian differs from the product matrix", p.desc)
		}
		tensor.PutMatrix(got)
	})
}

// TestFlipBitNegatesReluInJacobianRow checks, under Negation, that
// flipping one key bit negates exactly that neuron's row of the Jacobian
// at its ReLU (in an MLP, flip site s feeds ReLU site s) and leaves every
// other row as it was.
func TestFlipBitNegatesReluInJacobianRow(t *testing.T) {
	forEachLockedPoint(t, func(p lockedPoint) {
		if p.scheme != hpnn.Negation {
			return
		}
		for b, pn := range p.lm.Spec.Neurons {
			flipped := p.key.Clone()
			flipped[b] = !flipped[b]
			_, got := p.lm.Apply(flipped).ReluInJacobian(p.x, pn.Site)
			want := p.relu[pn.Site]
			for i := 0; i < want.Rows; i++ {
				for c := 0; c < want.Cols; c++ {
					w := want.At(i, c)
					if i == pn.Index {
						w = -w
					}
					if math.Float64bits(got.At(i, c)) != math.Float64bits(w) {
						t.Fatalf("%s: flipping bit %d (site %d neuron %d) moved entry (%d, %d) to %v, want %v",
							p.desc, b, pn.Site, pn.Index, i, c, got.At(i, c), w)
					}
				}
			}
			tensor.PutMatrix(got)
		}
	})
}
