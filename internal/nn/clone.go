package nn

import (
	"fmt"
)

// cloneParam deep-copies a parameter (gradients start at zero).
func cloneParam(p *Param) *Param {
	c := NewParam(p.Name, p.W.Rows, p.W.Cols)
	c.W.CopyFrom(p.W)
	c.Frozen = p.Frozen
	return c
}

// CloneLayer returns a deep copy of a layer: parameters are copied,
// training caches are dropped, soft flip state is not carried over.
func CloneLayer(l Layer) Layer { return cloneLayer(l, cloneParam) }

// cloneLayer copies a layer's structure into fresh layer values with no
// training state and no soft flip state, mapping every weight parameter
// through param. Flip signs and offsets are always deep-copied.
func cloneLayer(l Layer, param func(*Param) *Param) Layer {
	switch v := l.(type) {
	case *Dense:
		return &Dense{In: v.In, Out: v.Out, W: param(v.W), B: param(v.B)}
	case *TokenDense:
		return &TokenDense{T: v.T, D: cloneLayer(v.D, param).(*Dense)}
	case *ReLU:
		return NewReLU(v.N)
	case *Flatten:
		return NewFlatten(v.N)
	case *Flip:
		c := NewFlip(v.N)
		copy(c.Signs, v.Signs)
		if v.Offsets != nil {
			c.Offsets = make([]float64, len(v.Offsets))
			copy(c.Offsets, v.Offsets)
		}
		return c
	case *Conv2D:
		return &Conv2D{
			InC: v.InC, InH: v.InH, InW: v.InW,
			OutC: v.OutC, KH: v.KH, KW: v.KW, Stride: v.Stride, Pad: v.Pad,
			OutH: v.OutH, OutW: v.OutW,
			W: param(v.W), B: param(v.B),
		}
	case *MaxPool2D:
		return NewMaxPool2D(v.C, v.InH, v.InW, v.K, v.Stride)
	case *AvgPool2D:
		return NewAvgPool2D(v.C, v.InH, v.InW, v.K, v.Stride)
	case *GlobalAvgPool:
		return NewGlobalAvgPool(v.C, v.H, v.W)
	case *MeanTokens:
		return NewMeanTokens(v.T, v.D)
	case *Residual:
		body := make([]Layer, len(v.Body))
		for i, b := range v.Body {
			body[i] = cloneLayer(b, param)
		}
		short := make([]Layer, len(v.Shortcut))
		for i, s := range v.Shortcut {
			short[i] = cloneLayer(s, param)
		}
		return &Residual{Body: body, Shortcut: short}
	case *AttentionReLU:
		return &AttentionReLU{
			T: v.T, D: v.D, Dh: v.Dh,
			Wq: param(v.Wq), Wk: param(v.Wk), Wv: param(v.Wv), Wo: param(v.Wo),
		}
	case *PatchEmbed:
		return &PatchEmbed{
			C: v.C, H: v.H, W: v.W, P: v.P, D: v.D, T: v.T,
			Wt: param(v.Wt), B: param(v.B),
		}
	default:
		panic(fmt.Sprintf("nn: CloneLayer does not know %T", l))
	}
}

// Clone returns a fully independent deep copy of the network.
func (n *Network) Clone() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = CloneLayer(l)
	}
	return NewNetwork(layers...)
}

// CloneForKeys returns a network for evaluating n under another key
// hypothesis, or for fitting soft key coefficients against n's weights. It
// has its own layer values, so its flip signs, ReLU site IDs and training
// state are its own, and clones can run concurrently with each other. It
// shares n's weight matrices read-only: its weight parameters are frozen
// views with no gradient buffer, so training passes skip weight-gradient
// work. Only soft flip coefficients (Flip.Soften) are trainable.
func (n *Network) CloneForKeys() *Network {
	layers := make([]Layer, len(n.Layers))
	for i, l := range n.Layers {
		layers[i] = cloneLayer(l, frozenParam)
	}
	return NewNetwork(layers...)
}
