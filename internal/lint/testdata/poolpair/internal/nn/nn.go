// Package nn stubs the Jacobian and walker surface of the real
// dnnlock/internal/nn for the poolpair golden tests, and doubles as the
// fixture for the JVP tangent handoff: every JVP method here must release
// or return its tangent.
package nn

import "dnnlock/internal/tensor"

type JVPTrace struct{ hit bool }

func (t *JVPTrace) stopped() bool { return t != nil && t.hit }

// Layer mirrors the real forward-mode contract: JVP consumes j and returns
// a tangent the caller owns.
type Layer interface {
	JVP(x []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix)
}

type Network struct{ Layers []Layer }

// The three Jacobian entry points return a pooled matrix second.
func (n *Network) PreActJacobian(x []float64, site int) ([]float64, *tensor.Matrix) {
	return chain(n.Layers, x, tensor.GetMatrix(len(x), len(x)), &JVPTrace{})
}

func (n *Network) ReluInJacobian(x []float64, r int) ([]float64, *tensor.Matrix) {
	return chain(n.Layers, x, tensor.GetMatrix(len(x), len(x)), &JVPTrace{})
}

func (n *Network) OutputJacobian(x []float64) ([]float64, *tensor.Matrix) {
	return chain(n.Layers, x, tensor.GetMatrix(len(x), len(x)), nil)
}

// --- handoff: clean shapes -------------------------------------------------

// chain hands each layer the tangent the previous one returned.
func chain(ls []Layer, v []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix) {
	for _, l := range ls {
		v, j = l.JVP(v, j, jtr)
		if jtr.stopped() {
			break
		}
	}
	return v, j
}

type inPlace struct{}

// JVP updates j in place and returns it.
func (inPlace) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	j.Data[0] = 0
	return x, j
}

type linear struct{}

// JVP writes a pooled result and releases j.
func (linear) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) {
	jy := tensor.GetMatrix(j.Rows, j.Cols)
	tensor.PutMatrix(j)
	return x, jy
}

type container struct{ body, shortcut []Layer }

// JVP runs the body on a pooled copy and the shortcut on j itself; a stop
// in either path returns that path's tangent.
func (c container) JVP(x []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix) {
	bv, bj := x, tensor.GetMatrix(j.Rows, j.Cols)
	for _, l := range c.body {
		if bv, bj = l.JVP(bv, bj, jtr); jtr.stopped() {
			tensor.PutMatrix(j)
			return bv, bj
		}
	}
	sv, sj := x, j
	for _, l := range c.shortcut {
		if sv, sj = l.JVP(sv, sj, jtr); jtr.stopped() {
			tensor.PutMatrix(bj)
			return sv, sj
		}
	}
	tensor.PutMatrix(sj)
	return bv, bj
}

// --- handoff: violations ---------------------------------------------------

type leaky struct{}

func (leaky) JVP(x []float64, j *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) { // want "JVP argument j is never released"
	return x, tensor.GetMatrix(j.Rows, j.Cols)
}

type leakyOnStop struct{}

func (leakyOnStop) JVP(x []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix) {
	jy := tensor.GetMatrix(j.Rows, j.Cols)
	if jtr.stopped() {
		return x, jy // want "JVP argument j acquired at line .* may leak on this return path"
	}
	tensor.PutMatrix(j)
	return x, jy
}

type unnamed struct{}

func (unnamed) JVP(x []float64, _ *tensor.Matrix, _ *JVPTrace) ([]float64, *tensor.Matrix) { // want "JVP argument 1 is never released: JVP consumes it"
	return x, nil
}

// chainDropsTangent forgets the tangent the last layer returned.
func chainDropsTangent(ls []Layer, v []float64, j *tensor.Matrix) []float64 {
	for _, l := range ls {
		v, j = l.JVP(v, j, nil)
	}
	return v // want "nn.JVP acquired at line .* may leak on this return path"
}

// --- single-example walk: the result is pooled -----------------------------

// forwardChain mirrors the real walker's ownership contract: the last
// layer's output comes back in a pooled vector the caller releases.
func forwardChain(layers []Layer, x []float64) []float64 {
	y := tensor.GetVec(len(x))
	copy(y, x)
	return y
}

// walkReleased copies the logits out and releases the walk's vector, as
// Network.Forward does.
func walkReleased(n *Network, x []float64) []float64 {
	y := forwardChain(n.Layers, x)
	out := append([]float64(nil), y...)
	tensor.PutVec(y)
	return out
}

// walkLeaked reads one element and forgets the vector.
func walkLeaked(n *Network, x []float64) float64 {
	y := forwardChain(n.Layers, x) // want "result of nn.forwardChain is never released"
	return y[0]
}
