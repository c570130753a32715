package tensor

import (
	"math/bits"
	"sync"
)

// Workspace recycling for per-step scratch storage. The training and attack
// hot loops need short-lived matrices (attention intermediates, convolution
// patch buffers, gradient scratch); allocating them fresh every step makes
// the garbage collector a first-order cost (it was ~half the decryption
// attack's profile before pooling). GetMatrix/PutMatrix hand the same
// buffers back and forth through sync.Pools instead.
//
// Contract: Get* contents are arbitrary — callers must fully overwrite
// (every Into kernel does). After Put* the caller must not retain the value
// or its backing storage.

// matrixPools holds workspace matrices in power-of-two size classes: class
// k holds only buffers of capacity at least 2^k, and a request of n
// elements takes only from class ⌈log2 n⌉. So every matrix a class hands
// out fits the request, and a small tangent never borrows, and then keeps
// alive, a large learning buffer: under mixed MLP and ViT traffic a single
// size-blind pool raised peak RSS.
var matrixPools [bits.UintSize]sync.Pool

// GetMatrix returns a rows×cols workspace matrix with arbitrary contents.
// A fresh matrix gets its size class's full capacity, so it can serve any
// later request of that class.
func GetMatrix(rows, cols int) *Matrix {
	need := rows * cols
	k := bits.Len(uint(max(need, 1) - 1))
	if v := matrixPools[k].Get(); v != nil {
		m := v.(*Matrix)
		m.Rows, m.Cols = rows, cols
		m.Data = m.Data[:need]
		return m
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, need, 1<<k)}
}

// GetMatrixZero is GetMatrix with the contents cleared.
func GetMatrixZero(rows, cols int) *Matrix {
	m := GetMatrix(rows, cols)
	zeroVec(m.Data)
	return m
}

// PutMatrix returns workspace matrices to the pool, each under the class
// ⌊log2 cap⌋ its capacity fully covers. nil entries are ignored so deferred
// releases stay unconditional.
func PutMatrix(ms ...*Matrix) {
	for _, m := range ms {
		if m != nil && cap(m.Data) > 0 {
			matrixPools[bits.Len(uint(cap(m.Data)))-1].Put(m)
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
