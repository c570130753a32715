package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestRidgeSolveMatchesLeastSquares(t *testing.T) {
	// Tall full-rank system: ridge with a tiny λ must agree with QR.
	rng := rand.New(rand.NewSource(1))
	a := randMat(rng, 12, 5)
	want := randVec(rng, 5)
	b := MatVec(a, want)
	got := ridgeSolve(a, b)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-5*(1+math.Abs(want[i])) {
			t.Fatalf("ridge[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestRidgeSolveRankDeficientLarge(t *testing.T) {
	// A large tall rank-1 system: this is the configuration that used to
	// fall into the Jacobi SVD and hang; ridge must return quickly with a
	// least-squares solution.
	rng := rand.New(rand.NewSource(2))
	m, n := 600, 400 // m*n > 100_000 triggers the ridge path in LeastSquares
	u := randVec(rng, m)
	v := randVec(rng, n)
	a := New(m, n)
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			a.Set(i, j, u[i]*v[j])
		}
	}
	b := MatVec(a, v) // in the column space
	res := LeastSquares(a, b)
	if res.RelRes > 1e-6 {
		t.Fatalf("RelRes = %v on a consistent rank-1 system", res.RelRes)
	}
}

func TestLeastSquaresUnreachableTallReportsResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m, n := 500, 300
	a := New(m, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 1) // columns span only the first n coordinates
	}
	_ = rng
	b := make([]float64, m)
	b[m-1] = 1 // outside the span
	res := LeastSquares(a, b)
	if res.Residual < 0.99 {
		t.Fatalf("Residual = %v, want ~1", res.Residual)
	}
}

func TestLeastSquaresRelRes(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 0, 0, 1})
	res := LeastSquares(a, []float64{3, 4})
	if res.RelRes > 1e-9 {
		t.Fatalf("RelRes = %v on an exactly solvable system", res.RelRes)
	}
	// Zero rhs: RelRes must not divide by zero.
	res0 := LeastSquares(a, []float64{0, 0})
	if math.IsNaN(res0.RelRes) || math.IsInf(res0.RelRes, 0) {
		t.Fatalf("RelRes = %v for zero rhs", res0.RelRes)
	}
}

func TestQRPanicsOnWideMatrix(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rows < cols")
		}
	}()
	QRDecompose(New(2, 3))
}
