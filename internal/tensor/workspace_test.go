package tensor

import "testing"

// TestVecPoolCycleZeroAlloc pins the box-free vector pool: once warm, a
// GetVec/PutVec cycle allocates nothing, because PutVec recycles the
// *[]float64 boxes GetVec empties instead of boxing every slice anew.
func TestVecPoolCycleZeroAlloc(t *testing.T) {
	cycle := func() { PutVec(GetVec(64)) }
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs > 0 {
		t.Errorf("a GetVec/PutVec cycle allocates %.1f times", allocs)
	}
}

// TestMatrixPoolSizeClasses pins the size-classed matrix pool: a small
// request never takes a large pooled buffer, so a 2×2 tangent cannot
// borrow (and keep alive) a learning-sized matrix. The check is an upper
// bound, so it holds whether or not the pool kept the large matrix.
func TestMatrixPoolSizeClasses(t *testing.T) {
	PutMatrix(New(1000, 1000))
	m := GetMatrix(2, 2)
	defer PutMatrix(m)
	if m.Rows != 2 || m.Cols != 2 || len(m.Data) != 4 {
		t.Fatalf("GetMatrix(2, 2) returned %d×%d with %d elements", m.Rows, m.Cols, len(m.Data))
	}
	if cap(m.Data) >= 16 {
		t.Fatalf("GetMatrix(2, 2) returned a buffer of capacity %d, want < 16", cap(m.Data))
	}
}
