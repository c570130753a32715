// Package tensor stubs the workspace-pool surface of the real
// dnnlock/internal/tensor for the poolpair golden tests: same import path,
// same names, no behavior.
package tensor

type Matrix struct {
	Rows, Cols int
	Data       []float64
}

func New(rows, cols int) *Matrix {
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

func GetMatrix(rows, cols int) *Matrix { return New(rows, cols) }

func GetMatrixZero(rows, cols int) *Matrix { return New(rows, cols) }

func GetVec(n int) []float64 { return make([]float64, n) }

func PutMatrix(ms ...*Matrix) {}

func PutVec(v []float64) {}
