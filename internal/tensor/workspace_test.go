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
