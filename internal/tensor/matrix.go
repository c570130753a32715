// Package tensor provides the dense linear algebra substrate used by the
// network framework and the attack: row-major matrices, basic BLAS-like
// operations, and the decompositions (Cholesky, QR, SVD) behind the
// minimum-norm least-squares solver of Algorithm 1. Every element is a
// float64: the attack is defined in exact IEEE double arithmetic, and the
// kernels fix each result's accumulation order, so values are bit-identical
// at every parallelism level.
package tensor

import (
	"fmt"
	"math"
)

// Matrix is a dense row-major float64 matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, element (i,j) at Data[i*Cols+j]
}

// New returns a zeroed Rows×Cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromSlice wraps data (not copied) as a rows×cols matrix.
func FromSlice(rows, cols int, data []float64) *Matrix {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: FromSlice length %d != %d*%d", len(data), rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: data}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Matrix {
	m := New(n, n)
	for i := 0; i < n; i++ {
		m.Data[i*n+i] = 1
	}
	return m
}

// Diag returns a square matrix with d on the diagonal.
func Diag(d []float64) *Matrix {
	n := len(d)
	m := New(n, n)
	for i, v := range d {
		m.Data[i*n+i] = v
	}
	return m
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i.
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// SetRow copies v into row i.
func (m *Matrix) SetRow(i int, v []float64) {
	if len(v) != m.Cols {
		panic("tensor: SetRow length mismatch")
	}
	copy(m.Row(i), v)
}

// GatherRowsInto copies src rows rows[0], rows[1], ... into dst rows
// 0, 1, ... — the minibatch-assembly primitive of the learning attack,
// which shuffles a permutation and gathers the selected examples (or their
// cached prefix activations) into a reused workspace.
func GatherRowsInto(dst, src *Matrix, rows []int) {
	if dst.Cols != src.Cols || dst.Rows != len(rows) {
		panic(fmt.Sprintf("tensor: GatherRowsInto shape mismatch %dx%d <- %d of %dx%d",
			dst.Rows, dst.Cols, len(rows), src.Rows, src.Cols))
	}
	for i, r := range rows {
		copy(dst.Row(i), src.Row(r))
	}
}

// Col returns a copy of column j.
func (m *Matrix) Col(j int) []float64 {
	return m.ColInto(make([]float64, m.Rows), j)
}

// ColInto copies column j into dst (length m.Rows) and returns dst. Hot
// loops that walk columns repeatedly (the decompositions) use this with a
// reused buffer instead of Col to avoid per-call allocation and to turn
// the strided column reads into contiguous ones.
func (m *Matrix) ColInto(dst []float64, j int) []float64 {
	if len(dst) != m.Rows {
		panic("tensor: ColInto length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		dst[i] = m.Data[i*m.Cols+j]
	}
	return dst
}

// SetCol copies v into column j.
func (m *Matrix) SetCol(j int, v []float64) {
	if len(v) != m.Rows {
		panic("tensor: SetCol length mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+j] = v[i]
	}
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// CopyFrom copies the contents of src (same shape required).
func (m *Matrix) CopyFrom(src *Matrix) {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		panic("tensor: CopyFrom shape mismatch")
	}
	copy(m.Data, src.Data)
}

// Zero sets all elements to 0.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// T returns the transpose as a new matrix.
func (m *Matrix) T() *Matrix {
	t := New(m.Cols, m.Rows)
	m.TransposeInto(t)
	return t
}

// TransposeInto writes mᵀ into dst (shape Cols×Rows), reusing dst's
// storage — used with pooled workspaces where a transpose is genuinely
// needed for access-pattern reasons (e.g. staging Jacobian columns).
func (m *Matrix) TransposeInto(dst *Matrix) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic("tensor: TransposeInto shape mismatch")
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst.Data[j*dst.Cols+i] = v
		}
	}
}

// MatMul returns a*b.
func MatMul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMul shape mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := New(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a*b, reusing dst's storage. Rows of dst are
// computed by the cache-blocked kernel of kernels.go, sharded over the
// worker pool of parallel.go; results are bit-for-bit identical at every
// parallelism level because each row's accumulation order is fixed.
func MatMulInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulInto shape mismatch")
	}
	if w := shardWidth(a.Rows, a.Rows*a.Cols*b.Cols); w <= 1 {
		matMulRows(dst, a, b, 0, a.Rows, false)
	} else {
		parallelRows(w, a.Rows, func(lo, hi int) { matMulRows(dst, a, b, lo, hi, false) })
	}
}

// MatMulAddInto computes dst += a*b.
func MatMulAddInto(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMulAddInto shape mismatch")
	}
	if w := shardWidth(a.Rows, a.Rows*a.Cols*b.Cols); w <= 1 {
		matMulRows(dst, a, b, 0, a.Rows, true)
	} else {
		parallelRows(w, a.Rows, func(lo, hi int) { matMulRows(dst, a, b, lo, hi, true) })
	}
}

// MatVec returns a·x.
func MatVec(a *Matrix, x []float64) []float64 {
	out := make([]float64, a.Rows)
	MatVecInto(out, a, x)
	return out
}

// MatVecInto computes dst = a·x, sharding rows over the worker pool for
// large systems (each dst element is one dot product, so any sharding is
// bit-identical to the serial pass).
func MatVecInto(dst []float64, a *Matrix, x []float64) {
	if a.Cols != len(x) || a.Rows != len(dst) {
		panic(fmt.Sprintf("tensor: MatVec shape mismatch %dx%d · %d -> %d", a.Rows, a.Cols, len(x), len(dst)))
	}
	if w := shardWidth(a.Rows, a.Rows*a.Cols); w <= 1 {
		matVecRows(dst, a, x, 0, a.Rows)
	} else {
		parallelRows(w, a.Rows, func(lo, hi int) { matVecRows(dst, a, x, lo, hi) })
	}
}

// matVecRows computes dst[lo:hi] = a[lo:hi]·x, one dot product per row.
func matVecRows(dst []float64, a *Matrix, x []float64, lo, hi int) {
	for i := lo; i < hi; i++ {
		row := a.Row(i)
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		dst[i] = s
	}
}

// MatTVec returns aᵀ·x without materialising the transpose.
func MatTVec(a *Matrix, x []float64) []float64 {
	if a.Rows != len(x) {
		panic("tensor: MatTVec shape mismatch")
	}
	out := make([]float64, a.Cols)
	for i := 0; i < a.Rows; i++ {
		row := a.Row(i)
		xi := x[i]
		//lint:ignore floatcmp exact-zero skip: a zero coefficient contributes nothing to the product
		if xi == 0 {
			continue
		}
		for j, v := range row {
			out[j] += v * xi
		}
	}
	return out
}

// Add returns a+b element-wise.
func Add(a, b *Matrix) *Matrix {
	sameShape(a, b, "Add")
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] += v
	}
	return out
}

// AddInPlace sets m += b.
func (m *Matrix) AddInPlace(b *Matrix) {
	sameShape(m, b, "AddInPlace")
	for i, v := range b.Data {
		m.Data[i] += v
	}
}

// Sub returns a-b element-wise.
func Sub(a, b *Matrix) *Matrix {
	sameShape(a, b, "Sub")
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] -= v
	}
	return out
}

// Scale returns s*m as a new matrix.
func (m *Matrix) Scale(s float64) *Matrix {
	out := m.Clone()
	for i := range out.Data {
		out.Data[i] *= s
	}
	return out
}

// ScaleInPlace sets m *= s.
func (m *Matrix) ScaleInPlace(s float64) {
	for i := range m.Data {
		m.Data[i] *= s
	}
}

// Hadamard returns the element-wise product a∘b.
func Hadamard(a, b *Matrix) *Matrix {
	sameShape(a, b, "Hadamard")
	out := a.Clone()
	for i, v := range b.Data {
		out.Data[i] *= v
	}
	return out
}

// MaskRows zeroes every row i with mask[i] == false, in place, and returns m.
// This is the "M^(i)" broadcast masking of the paper's Formula 3.
func (m *Matrix) MaskRows(mask []bool) *Matrix {
	if len(mask) != m.Rows {
		panic("tensor: MaskRows length mismatch")
	}
	for i, keep := range mask {
		if !keep {
			row := m.Row(i)
			for j := range row {
				row[j] = 0
			}
		}
	}
	return m
}

// MaxAbs returns max_i |m.Data[i]| (0 for an empty matrix).
func (m *Matrix) MaxAbs() float64 {
	mx := 0.0
	for _, v := range m.Data {
		if a := math.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// FrobNorm returns the Frobenius norm.
func (m *Matrix) FrobNorm() float64 {
	s := 0.0
	for _, v := range m.Data {
		s += v * v
	}
	return math.Sqrt(s)
}

// Equal reports whether a and b have the same shape and all elements within tol.
func Equal(a, b *Matrix, tol float64) bool {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i, v := range a.Data {
		if math.Abs(v-b.Data[i]) > tol {
			return false
		}
	}
	return true
}

func sameShape(a, b *Matrix, op string) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: %s shape mismatch %dx%d vs %dx%d", op, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	s := fmt.Sprintf("Matrix %dx%d [", m.Rows, m.Cols)
	for i := 0; i < m.Rows && i < 6; i++ {
		s += fmt.Sprintf("%v", m.Row(i))
		if i < m.Rows-1 {
			s += "; "
		}
	}
	if m.Rows > 6 {
		s += "..."
	}
	return s + "]"
}
