package tensor

import "sync"

// Workspace recycling for per-step scratch storage. The training and attack
// hot loops need short-lived matrices (attention intermediates, convolution
// patch buffers, gradient scratch); allocating them fresh every step makes
// the garbage collector a first-order cost (it was ~half the decryption
// attack's profile before pooling). GetMatrix/PutMatrix hand the same
// buffers back and forth through a sync.Pool instead.
//
// Contract: Get* contents are arbitrary — callers must fully overwrite
// (every Into kernel does). After Put* the caller must not retain the value
// or its backing storage.

var matrixPool sync.Pool

// GetMatrix returns a rows×cols workspace matrix with arbitrary contents.
func GetMatrix(rows, cols int) *Matrix {
	need := rows * cols
	if v := matrixPool.Get(); v != nil {
		m := v.(*Matrix)
		if cap(m.Data) >= need {
			m.Rows, m.Cols = rows, cols
			m.Data = m.Data[:need]
			return m
		}
		// Too small for this request: drop it and allocate fresh.
	}
	return New(rows, cols)
}

// GetMatrixZero is GetMatrix with the contents cleared.
func GetMatrixZero(rows, cols int) *Matrix {
	m := GetMatrix(rows, cols)
	zeroVec(m.Data)
	return m
}

// PutMatrix returns workspace matrices to the pool. nil entries are
// ignored so deferred releases stay unconditional.
func PutMatrix(ms ...*Matrix) {
	for _, m := range ms {
		if m != nil && cap(m.Data) > 0 {
			matrixPool.Put(m)
		}
	}
}

// vecPool holds workspace slices behind *[]float64 boxes, because a
// sync.Pool stores interface values and a bare slice would be boxed on every
// Put. Emptied boxes wait in boxPool for the next Put, so a GetVec/PutVec
// cycle allocates nothing once both pools are warm.
var vecPool, boxPool sync.Pool

// GetVec returns a length-n workspace slice with arbitrary contents.
func GetVec(n int) []float64 {
	if p, _ := vecPool.Get().(*[]float64); p != nil {
		v := *p
		*p = nil
		boxPool.Put(p)
		if cap(v) >= n {
			return v[:n]
		}
		// Too small for this request: drop it and allocate fresh.
	}
	return make([]float64, n)
}

// PutVec returns a workspace slice to the pool.
func PutVec(v []float64) {
	if cap(v) == 0 {
		return
	}
	p, _ := boxPool.Get().(*[]float64)
	if p == nil {
		p = new([]float64)
	}
	*p = v
	vecPool.Put(p)
}
