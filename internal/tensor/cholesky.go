package tensor

import (
	"errors"
	"math"
)

// ErrSingular is returned when a factorization meets a (numerically) singular matrix.
var ErrSingular = errors.New("tensor: matrix is singular to working precision")

// Cholesky holds the lower-triangular factor L of a symmetric positive
// definite matrix: A = L·Lᵀ.
type Cholesky struct {
	l *Matrix
}

// CholeskyDecompose factors a symmetric positive definite matrix.
// It returns ErrSingular when a non-positive pivot is met.
func CholeskyDecompose(a *Matrix) (*Cholesky, error) {
	if a.Rows != a.Cols {
		panic("tensor: CholeskyDecompose requires a square matrix")
	}
	n := a.Rows
	l := New(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			li, lj := l.Row(i), l.Row(j)
			for k := 0; k < j; k++ {
				s -= li[k] * lj[k]
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				li[j] = math.Sqrt(s)
			} else {
				li[j] = s / lj[j]
			}
		}
	}
	return &Cholesky{l: l}, nil
}

// Solve returns x with A·x = b.
func (c *Cholesky) Solve(b []float64) []float64 {
	return c.SolveInto(make([]float64, c.l.Rows), b)
}

// SolveInto solves A·x = b into the caller-provided x (following the
// ColInto convention: the destination comes first and is returned). The
// forward-substitution intermediate lives in a pooled workspace, so the
// solve itself allocates nothing — hot callers pass a pooled or reused x
// and the per-call garbage of the old Solve disappears. x may alias b:
// b's element i is consumed before anything overwrites it.
func (c *Cholesky) SolveInto(x, b []float64) []float64 {
	n := c.l.Rows
	if len(b) != n || len(x) != n {
		panic("tensor: Cholesky.Solve length mismatch")
	}
	// Forward: L·y = b.
	y := GetVec(n)
	defer PutVec(y)
	for i := 0; i < n; i++ {
		row := c.l.Row(i)
		s := b[i]
		for j := 0; j < i; j++ {
			s -= row[j] * y[j]
		}
		y[i] = s / row[i]
	}
	// Backward: Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= c.l.At(j, i) * x[j]
		}
		x[i] = s / c.l.At(i, i)
	}
	return x
}

// L returns a copy of the lower-triangular factor.
func (c *Cholesky) L() *Matrix { return c.l.Clone() }
