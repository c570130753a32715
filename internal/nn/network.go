package nn

import (
	"fmt"

	"dnnlock/internal/tensor"
)

// Network is a feed-forward stack of layers. Lockable pre-activations are
// marked by Flip layers; Flip and ReLU layers are assigned site IDs in
// network order at construction so traces and the attack can address them.
type Network struct {
	Layers []Layer

	flips []*Flip
	relus []*ReLU
}

// NewNetwork builds a network, validates the layer size chain, and
// registers flip/ReLU sites (including those inside residual blocks).
func NewNetwork(layers ...Layer) *Network {
	if len(layers) == 0 {
		panic("nn: empty network")
	}
	for i := 1; i < len(layers); i++ {
		if layers[i-1].OutSize() != layers[i].InSize() {
			panic(fmt.Sprintf("nn: layer %d (%s) outputs %d but layer %d (%s) expects %d",
				i-1, layers[i-1].Name(), layers[i-1].OutSize(), i, layers[i].Name(), layers[i].InSize()))
		}
	}
	n := &Network{Layers: layers}
	var walk func(ls []Layer)
	walk = func(ls []Layer) {
		for _, l := range ls {
			switch v := l.(type) {
			case *Residual:
				walk(v.Body)
				walk(v.Shortcut)
			case *Flip:
				v.SiteID = len(n.flips)
				n.flips = append(n.flips, v)
			case *ReLU:
				v.SiteID = len(n.relus)
				n.relus = append(n.relus, v)
			}
		}
	}
	walk(layers)
	return n
}

// InSize returns the input dimensionality P.
func (n *Network) InSize() int { return n.Layers[0].InSize() }

// OutSize returns the output dimensionality Q.
func (n *Network) OutSize() int { return n.Layers[len(n.Layers)-1].OutSize() }

// Flips returns the flip layers in site-ID order.
func (n *Network) Flips() []*Flip { return n.flips }

// ReLUs returns the ReLU layers in site-ID order.
func (n *Network) ReLUs() []*ReLU { return n.relus }

// NumFlipSites returns the number of flip sites.
func (n *Network) NumFlipSites() int { return len(n.flips) }

// Forward computes the logits for one example. Safe for concurrent use as
// long as no goroutine mutates parameters or flip signs. Intermediate
// activations are staged in pooled workspaces; the returned logits are a
// fresh slice the caller owns.
func (n *Network) Forward(x []float64) []float64 {
	y := forwardChain(n.Layers, x, nil, nil)
	out := append([]float64(nil), y...)
	tensor.PutVec(y)
	return out
}

func (n *Network) newTrace() *Trace {
	return &Trace{
		Pre:      make([][]float64, len(n.flips)),
		Post:     make([][]float64, len(n.flips)),
		Patterns: make([][]bool, len(n.relus)),
		ReluIn:   make([][]float64, len(n.relus)),
	}
}

// forwardTrace runs the trace-recording pass. The trace holds only copies
// (and, at the end, a fresh copy of the logits), so the walk recycles its
// intermediates. A non-nil stop predicate is checked after every top-level
// layer; on stop tr.Out stays nil.
func (n *Network) forwardTrace(x []float64, tr *Trace, stop func() bool) {
	y := forwardChain(n.Layers, x, tr, stop)
	if y != nil {
		tr.Out = append([]float64(nil), y...)
	}
	tensor.PutVec(y)
}

// ForwardTrace computes the logits while recording flip-site pre/post
// values, ReLU inputs, and ReLU activation patterns.
func (n *Network) ForwardTrace(x []float64) *Trace {
	tr := n.newTrace()
	n.forwardTrace(x, tr, nil)
	return tr
}

// ForwardTraceTo records like ForwardTrace but stops (at top-level layer
// granularity) once flip site `site` has been recorded, saving the cost of
// the downstream layers. Used by the attack's critical-point search, which
// probes one pre-activation many times.
func (n *Network) ForwardTraceTo(x []float64, site int) *Trace {
	tr := n.newTrace()
	n.forwardTrace(x, tr, func() bool {
		return site >= 0 && site < len(tr.Pre) && tr.Pre[site] != nil
	})
	return tr
}

// PostAt returns the post-flip value of element idx at flip site `site` —
// the scalar the §3.5 critical-point bisection reads. It computes exactly
// the values of ForwardTraceTo but records nothing and stops as soon as the
// flip has run, so a probe costs the prefix forward plus one flip row.
func (n *Network) PostAt(x []float64, site, idx int) float64 {
	return n.probe(x, site, -1, idx)
}

// ReluInAt returns the input of element idx at ReLU site `reluSite`, the
// scalar bisected by the validation's hyperplane probes. Same contract as
// PostAt.
func (n *Network) ReluInAt(x []float64, reluSite, idx int) float64 {
	return n.probe(x, -1, reluSite, idx)
}

// probe runs probeChain over the network, whose layers must hold the site.
func (n *Network) probe(x []float64, flip, relu, idx int) float64 {
	v, ok := probeChain(n.Layers, x, flip, relu, idx)
	if !ok {
		panic(fmt.Sprintf("nn: site (flip %d, relu %d) never reached", flip, relu))
	}
	return v
}

// probeChain returns element idx of the probed value: the output of flip site
// flip, or the input of ReLU site relu (-1 names neither). The layers
// before the one holding the site run through forwardChain, and a Residual
// holding it is entered along that path only, so nothing downstream and no
// path is evaluated twice. ok is false when no layer holds the site.
func probeChain(layers []Layer, x []float64, flip, relu, idx int) (v float64, ok bool) {
	k := 0
	for k < len(layers) && !hasSite(layers[k], flip, relu) {
		k++
	}
	if k == len(layers) {
		return 0, false
	}
	cur := forwardChain(layers[:k], x, nil, nil)
	switch l := layers[k].(type) {
	case *Flip:
		y := tensor.GetVec(l.N)
		l.Forward(y, cur, nil)
		v = y[idx]
		tensor.PutVec(y)
	case *ReLU:
		v = cur[idx]
	case *Residual:
		if v, ok = probeChain(l.Body, cur, flip, relu, idx); !ok {
			v, _ = probeChain(l.Shortcut, cur, flip, relu, idx)
		}
	}
	tensor.PutVec(cur)
	return v, true
}

// ForwardBatch computes logits for a batch (rows = examples). Consumed
// intermediates are recycled through the workspace pool — no layer retains
// its ForwardBatch result (unlike TrainForward, whose results the layers
// own). The returned logits are the caller's to release or abandon.
func (n *Network) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	return forwardBatchChain(n.Layers, x)
}

// TrainForward runs the caching forward pass for training. The returned
// logits belong to the last layer (see Layer): valid until the next
// TrainForward, never released or retained by the caller.
func (n *Network) TrainForward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.TrainForward(x)
	}
	return x
}

// TrainBackward propagates the output gradient, accumulating the gradients
// of unfrozen parameters, and returns the input gradient. Like every
// training-pass result, the input gradient belongs to the first layer.
func (n *Network) TrainBackward(dy *tensor.Matrix) *tensor.Matrix {
	return backwardChain(n.Layers, dy)
}

// DropTrainState releases the training state of every layer: cached inputs
// and the buffers the training passes write into. Call it when a training
// loop ends, so the network keeps no per-minibatch storage.
func (n *Network) DropTrainState() { dropTrainState(n.Layers) }

// Params returns every parameter in the network.
func (n *Network) Params() []*Param {
	var out []*Param
	for _, l := range n.Layers {
		out = append(out, l.Params()...)
	}
	return out
}

// ZeroGrad clears all parameter gradients.
func (n *Network) ZeroGrad() {
	for _, l := range n.Layers {
		for _, p := range l.Params() {
			p.ZeroGrad()
		}
	}
}

// PreActJacobian returns the unsigned pre-activation u at flip site and its
// Jacobian Â (d_site × P) with respect to the network input, evaluated at x.
// For a piecewise-linear network this Jacobian is exactly the paper's
// product weight matrix of Formulas 2–3 in the linear region of x.
// Propagation stops as soon as the requested site is reached. The Jacobian
// is a pooled workspace matrix: the caller owns it and hands it back with
// tensor.PutMatrix once done (abandoning it is safe, just slower).
func (n *Network) PreActJacobian(x []float64, site int) ([]float64, *tensor.Matrix) {
	if site < 0 || site >= len(n.flips) {
		panic(fmt.Sprintf("nn: flip site %d out of range", site))
	}
	return n.jacobianTo(x, &JVPTrace{flip: site, relu: -1})
}

// ReluInJacobian returns the input of ReLU site r and its Jacobian with
// respect to the network input, evaluated at x. The zero set of this input
// is where the network function actually bends, which is what the attack's
// validation probes. The Jacobian is pooled, as for PreActJacobian.
func (n *Network) ReluInJacobian(x []float64, r int) ([]float64, *tensor.Matrix) {
	if r < 0 || r >= len(n.relus) {
		panic(fmt.Sprintf("nn: relu site %d out of range", r))
	}
	return n.jacobianTo(x, &JVPTrace{flip: -1, relu: r})
}

// OutputJacobian returns the logits y and the full Jacobian dy/dx (Q × P).
// The Jacobian is pooled, as for PreActJacobian.
func (n *Network) OutputJacobian(x []float64) ([]float64, *tensor.Matrix) {
	return jvpChain(n.Layers, x, identitySeed(len(x)), nil)
}

// jacobianTo sweeps the network from the input until jtr's site stops it
// and returns the value and Jacobian the chain carried there.
func (n *Network) jacobianTo(x []float64, jtr *JVPTrace) ([]float64, *tensor.Matrix) {
	v, j := jvpChain(n.Layers, x, identitySeed(len(x)), jtr)
	if !jtr.stopped() {
		panic(fmt.Sprintf("nn: site (flip %d, relu %d) never reached", jtr.flip, jtr.relu))
	}
	if sameVec(v, x) {
		// A site no layer precedes sees the caller's input itself.
		v = append([]float64(nil), x...)
	}
	return v, j
}

// sameVec reports whether two slices share a backing array start — the
// identity-layer case (Flatten's JVP returns its input untouched).
func sameVec(a, b []float64) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// identitySeed returns the pooled n×n identity a sweep starts from.
func identitySeed(n int) *tensor.Matrix {
	j := tensor.GetMatrixZero(n, n)
	for i := 0; i < n; i++ {
		j.Data[i*n+i] = 1
	}
	return j
}

// jvpChain folds JVP over layers, handing each the tangent the previous
// one returned. It returns as soon as jtr's site is reached, with the value
// and tangent at that site.
func jvpChain(layers []Layer, v []float64, j *tensor.Matrix, jtr *JVPTrace) ([]float64, *tensor.Matrix) {
	for _, l := range layers {
		v, j = l.JVP(v, j, jtr)
		if jtr.stopped() {
			break
		}
	}
	return v, j
}

// SiteEvent describes one flip or ReLU site in computation-walk order,
// annotated with the layer sequence it belongs to so callers can reason
// about direct gating (a ReLU immediately following a Flip in the same
// sequence rectifies exactly that flip's output).
type SiteEvent struct {
	IsFlip bool
	ID     int // flip-site or ReLU-site ID
	Seq    int // sequence instance: 0 = top level, residual paths get fresh IDs
	Pos    int // layer position within the sequence
}

// SiteLayout returns the flip and ReLU sites in computation-walk order.
func (n *Network) SiteLayout() []SiteEvent {
	var out []SiteEvent
	nextSeq := 0
	var walk func(seq int, layers []Layer)
	walk = func(seq int, layers []Layer) {
		for pos, l := range layers {
			switch v := l.(type) {
			case *Flip:
				out = append(out, SiteEvent{IsFlip: true, ID: v.SiteID, Seq: seq, Pos: pos})
			case *ReLU:
				out = append(out, SiteEvent{IsFlip: false, ID: v.SiteID, Seq: seq, Pos: pos})
			case *Residual:
				nextSeq++
				walk(nextSeq, v.Body)
				nextSeq++
				walk(nextSeq, v.Shortcut)
			}
		}
	}
	walk(0, n.Layers)
	return out
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W.Data)
	}
	return total
}
