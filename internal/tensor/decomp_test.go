package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCholeskySolve(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		b := randMat(r, n, n)
		// SPD matrix: BᵀB + I.
		a := MatMul(b.T(), b)
		a.AddInPlace(Identity(n))
		want := randVec(r, n)
		rhs := MatVec(a, want)
		ch, err := CholeskyDecompose(a)
		if err != nil {
			return false
		}
		got := ch.Solve(rhs)
		for i := range got {
			if math.Abs(got[i]-want[i]) > 1e-7*(1+math.Abs(want[i])) {
				return false
			}
		}
		// Reconstruction: L·Lᵀ == A.
		l := ch.L()
		return Equal(MatMul(l, l.T()), a, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskySolveInto(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		b := randMat(r, n, n)
		a := MatMul(b.T(), b)
		a.AddInPlace(Identity(n))
		rhs := randVec(r, n)
		ch, err := CholeskyDecompose(a)
		if err != nil {
			return false
		}
		want := ch.Solve(rhs)
		// Caller-buffer form must match the allocating form exactly.
		got := ch.SolveInto(make([]float64, n), rhs)
		for i := range got {
			if got[i] != want[i] {
				return false
			}
		}
		// Aliased form x == b: b is consumed before being overwritten.
		aliased := VecClone(rhs)
		ch.SolveInto(aliased, aliased)
		for i := range aliased {
			if aliased[i] != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := FromSlice(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := CholeskyDecompose(a); err == nil {
		t.Fatal("expected failure on an indefinite matrix")
	}
}

func TestQRReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		m := n + r.Intn(6)
		a := randMat(r, m, n)
		qr := QRDecompose(a)
		q, rr := qr.Q(), qr.R()
		// Qᵀ·Q == I and Q·R == A.
		if !Equal(MatMul(q.T(), q), Identity(n), 1e-9) {
			return false
		}
		return Equal(MatMul(q, rr), a, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 from noisy-free samples: exact recovery.
	a := FromSlice(4, 2, []float64{
		0, 1,
		1, 1,
		2, 1,
		3, 1,
	})
	b := []float64{1, 3, 5, 7}
	x, err := QRDecompose(a).Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-10 || math.Abs(x[1]-1) > 1e-10 {
		t.Fatalf("fit = %v, want [2 1]", x)
	}
}

func TestSVDReconstruction(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m, n := 1+r.Intn(7), 1+r.Intn(7)
		a := randMat(r, m, n)
		s := SVDecompose(a)
		// U·diag(S)·Vᵀ == A.
		us := s.U.Clone()
		for j := 0; j < len(s.S); j++ {
			for i := 0; i < us.Rows; i++ {
				us.Set(i, j, us.At(i, j)*s.S[j])
			}
		}
		if !Equal(MatMul(us, s.V.T()), a, 1e-8) {
			return false
		}
		// Singular values descending and nonnegative.
		for i := 1; i < len(s.S); i++ {
			if s.S[i] > s.S[i-1]+1e-12 || s.S[i] < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSVDRank(t *testing.T) {
	// Rank-1 matrix.
	a := FromSlice(3, 3, []float64{1, 2, 3, 2, 4, 6, 3, 6, 9})
	s := SVDecompose(a)
	if got := s.Rank(1e-10); got != 1 {
		t.Fatalf("Rank = %d, want 1", got)
	}
}

func TestLeastSquaresMinNormExact(t *testing.T) {
	// Wide full-row-rank system: solution exact and minimum norm.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := 1 + r.Intn(5)
		n := m + 1 + r.Intn(6)
		a := randMat(r, m, n)
		b := randVec(r, m)
		res := LeastSquares(a, b)
		if res.RelRes > 1e-8 {
			return false
		}
		// Minimum-norm solutions lie in row space: x ⟂ null(A), i.e.
		// x = Aᵀw for some w. Check by projecting onto the row space via SVD.
		s := SVDecompose(a)
		proj := make([]float64, n)
		for j := 0; j < len(s.S); j++ {
			if s.S[j] <= 1e-10*s.S[0] {
				continue
			}
			vj := s.V.Col(j)
			c := Dot(vj, res.X)
			AXPY(c, vj, proj)
		}
		return Norm2(VecSub(proj, res.X)) < 1e-6*(1+Norm2(res.X))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLeastSquaresExpansiveHasResidual(t *testing.T) {
	// Tall system with b outside the column space: residual must be large.
	// Columns span only the first 2 coordinates of R^4.
	a := FromSlice(4, 2, []float64{
		1, 0,
		0, 1,
		0, 0,
		0, 0,
	})
	res := LeastSquares(a, []float64{0, 0, 1, 0})
	if res.Residual < 0.99 {
		t.Fatalf("Residual = %v, want ~1 (unreachable target)", res.Residual)
	}
}

func TestLeastSquaresRankDeficientFallsBackToSVD(t *testing.T) {
	// Rank-1 wide matrix: min-norm Cholesky path is singular; SVD fallback
	// must still produce the least-squares solution.
	a := FromSlice(2, 3, []float64{1, 1, 1, 2, 2, 2})
	res := LeastSquares(a, []float64{3, 6}) // consistent: x = [1 1 1] works
	if res.RelRes > 1e-8 {
		t.Fatalf("RelRes = %v, want ~0", res.RelRes)
	}
}

func TestVectorHelpers(t *testing.T) {
	if Dot([]float64{1, 2}, []float64{3, 4}) != 11 {
		t.Fatal("Dot")
	}
	if Norm2([]float64{3, 4}) != 5 {
		t.Fatal("Norm2")
	}
	if NormInf([]float64{-7, 2}) != 7 {
		t.Fatal("NormInf")
	}
	y := []float64{1, 1}
	AXPY(2, []float64{1, 2}, y)
	if y[0] != 3 || y[1] != 5 {
		t.Fatal("AXPY")
	}
	if v := VecAdd([]float64{1}, []float64{2}); v[0] != 3 {
		t.Fatal("VecAdd")
	}
	if v := VecSub([]float64{5}, []float64{2}); v[0] != 3 {
		t.Fatal("VecSub")
	}
	if v := VecScale(2, []float64{3}); v[0] != 6 {
		t.Fatal("VecScale")
	}
	if b := Basis(3, 1); b[0] != 0 || b[1] != 1 || b[2] != 0 {
		t.Fatal("Basis")
	}
	if ArgMax([]float64{1, 5, 2}) != 1 {
		t.Fatal("ArgMax")
	}
	if ArgMax(nil) != -1 {
		t.Fatal("ArgMax empty")
	}
	sm := Softmax([]float64{1000, 1000})
	if math.Abs(sm[0]-0.5) > 1e-12 {
		t.Fatalf("Softmax overflow handling: %v", sm)
	}
	s := 0.0
	for _, p := range Softmax([]float64{1, -2, 0.5}) {
		if p < 0 {
			t.Fatal("Softmax negative")
		}
		s += p
	}
	if math.Abs(s-1) > 1e-12 {
		t.Fatalf("Softmax sum = %v", s)
	}
}
