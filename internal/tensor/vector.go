package tensor

import "math"

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("tensor: Dot length mismatch")
	}
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	s := 0.0
	for _, x := range v {
		s += x * x
	}
	return math.Sqrt(s)
}

// NormInf returns max_i |v[i]|.
func NormInf(v []float64) float64 {
	m := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic("tensor: AXPY length mismatch")
	}
	for i, v := range x {
		y[i] += a * v
	}
}

// VecAdd returns a+b.
func VecAdd(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("tensor: VecAdd length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] + b[i]
	}
	return out
}

// VecSub returns a-b.
func VecSub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("tensor: VecSub length mismatch")
	}
	out := make([]float64, len(a))
	for i := range a {
		out[i] = a[i] - b[i]
	}
	return out
}

// VecScale returns s*v.
func VecScale(s float64, v []float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = s * x
	}
	return out
}

// VecClone returns a copy of v.
func VecClone(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}

// Basis returns the j-th standard basis vector e_j of R^n.
func Basis(n, j int) []float64 {
	v := make([]float64, n)
	v[j] = 1
	return v
}

// ArgMax returns the index of the largest element (first on ties), -1 if empty.
func ArgMax(v []float64) int {
	if len(v) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(v); i++ {
		if v[i] > v[best] {
			best = i
		}
	}
	return best
}

// Softmax returns the softmax of v, computed stably.
func Softmax(v []float64) []float64 {
	return SoftmaxInto(make([]float64, len(v)), v)
}

// SoftmaxInto computes the softmax of v into dst (which must have the same
// length) and returns dst. dst may alias v, so SoftmaxInto(v, v) is the
// allocation-free in-place form.
func SoftmaxInto(dst, v []float64) []float64 {
	if len(dst) != len(v) {
		panic("tensor: SoftmaxInto length mismatch")
	}
	mx := math.Inf(-1)
	for _, x := range v {
		if x > mx {
			mx = x
		}
	}
	sum := 0.0
	for i, x := range v {
		e := math.Exp(x - mx)
		dst[i] = e
		sum += e
	}
	for i := range dst {
		dst[i] /= sum
	}
	return dst
}
