package tensor

import "fmt"

// Cache-blocked matrix kernels.
//
// Every kernel preserves the reference serial accumulation order: each
// destination element gathers its terms in ascending order of the shared
// dimension, and terms whose left-operand element is exactly zero are
// skipped (matching MatMulInto's historical sparsity shortcut, and keeping
// signed zeros and non-finite values reproducible). Row blocking and column
// tiling only regroup independent element chains, and the parallel runtime
// (parallel.go) partitions whole destination rows across workers, so the
// result is bit-for-bit identical at every fan-out width.

// jBlockCols is the destination tile width: four destination rows of
// jBlockCols elements plus the matching b-row slice stay L1-resident.
const jBlockCols = 512

// zeroVec clears v (compiles to a memclr).
func zeroVec(v []float64) {
	for i := range v {
		v[i] = 0
	}
}

// axpyBlock computes dst += a*x over a tile.
func axpyBlock(dst []float64, a float64, x []float64) {
	for j, v := range x {
		dst[j] += a * v
	}
}

// matMulRows computes rows [lo, hi) of dst = a·b (dst ±= when accumulate)
// with 4-way row blocking and jBlockCols column tiling: each pass streams
// one b row against four a scalars, quartering the b traffic of the naive
// ikj loop.
func matMulRows(dst, a, b *Matrix, lo, hi int, accumulate bool) {
	kn, jn := a.Cols, b.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		d0, d1, d2, d3 := dst.Row(i), dst.Row(i+1), dst.Row(i+2), dst.Row(i+3)
		if !accumulate {
			zeroVec(d0)
			zeroVec(d1)
			zeroVec(d2)
			zeroVec(d3)
		}
		a0, a1, a2, a3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		for j0 := 0; j0 < jn; j0 += jBlockCols {
			j1 := j0 + jBlockCols
			if j1 > jn {
				j1 = jn
			}
			for k := 0; k < kn; k++ {
				v0, v1, v2, v3 := a0[k], a1[k], a2[k], a3[k]
				if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
					continue
				}
				brow := b.Data[k*jn+j0 : k*jn+j1]
				if v0 != 0 && v1 != 0 && v2 != 0 && v3 != 0 {
					e0, e1, e2, e3 := d0[j0:j1], d1[j0:j1], d2[j0:j1], d3[j0:j1]
					for j, bv := range brow {
						e0[j] += v0 * bv
						e1[j] += v1 * bv
						e2[j] += v2 * bv
						e3[j] += v3 * bv
					}
					continue
				}
				// Mixed zero/non-zero block: fall back to guarded rows so
				// the zero-skip semantics match the serial path exactly.
				if v0 != 0 {
					axpyBlock(d0[j0:j1], v0, brow)
				}
				if v1 != 0 {
					axpyBlock(d1[j0:j1], v1, brow)
				}
				if v2 != 0 {
					axpyBlock(d2[j0:j1], v2, brow)
				}
				if v3 != 0 {
					axpyBlock(d3[j0:j1], v3, brow)
				}
			}
		}
	}
	for ; i < hi; i++ {
		drow := dst.Row(i)
		if !accumulate {
			zeroVec(drow)
		}
		arow := a.Row(i)
		for j0 := 0; j0 < jn; j0 += jBlockCols {
			j1 := j0 + jBlockCols
			if j1 > jn {
				j1 = jn
			}
			for k, av := range arow {
				if av == 0 {
					continue
				}
				axpyBlock(drow[j0:j1], av, b.Data[k*jn+j0:k*jn+j1])
			}
		}
	}
}

// matMulABTRows computes rows [lo, hi) of dst = a·bᵀ (dst ±= when
// accumulate) as blocked dot products: one a row streams against four b
// rows at a time.
func matMulABTRows(dst, a, b *Matrix, lo, hi int, accumulate bool) {
	for i := lo; i < hi; i++ {
		ar := a.Row(i)
		dr := dst.Row(i)
		j := 0
		for ; j+4 <= b.Rows; j += 4 {
			b0, b1, b2, b3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
			var s0, s1, s2, s3 float64
			for k, av := range ar {
				if av == 0 {
					continue
				}
				s0 += av * b0[k]
				s1 += av * b1[k]
				s2 += av * b2[k]
				s3 += av * b3[k]
			}
			if accumulate {
				dr[j] += s0
				dr[j+1] += s1
				dr[j+2] += s2
				dr[j+3] += s3
			} else {
				dr[j], dr[j+1], dr[j+2], dr[j+3] = s0, s1, s2, s3
			}
		}
		for ; j < b.Rows; j++ {
			br := b.Row(j)
			var s float64
			for k, av := range ar {
				if av == 0 {
					continue
				}
				s += av * br[k]
			}
			if accumulate {
				dr[j] += s
			} else {
				dr[j] = s
			}
		}
	}
}

// matMulATBRows computes rows [lo, hi) of dst = aᵀ·b (dst ±= when
// accumulate) by streaming the rows of a and b once per destination shard:
// contribution k lands on destination row i as dst[i] += a[k][i]·b[k].
func matMulATBRows(dst, a, b *Matrix, lo, hi int, accumulate bool) {
	if !accumulate {
		for i := lo; i < hi; i++ {
			zeroVec(dst.Row(i))
		}
	}
	for k := 0; k < a.Rows; k++ {
		arow := a.Row(k)
		brow := b.Row(k)
		for i := lo; i < hi; i++ {
			if av := arow[i]; av != 0 {
				axpyBlock(dst.Row(i), av, brow)
			}
		}
	}
}

// MatMulABT returns a·bᵀ without materializing the transpose.
func MatMulABT(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Rows)
	MatMulABTInto(out, a, b)
	return out
}

// MatMulABTInto computes dst = a·bᵀ, reusing dst's storage. The transpose
// is never materialized: element (i, j) is the dot product of a's row i and
// b's row j, so both operands stream contiguously.
func MatMulABTInto(dst, a, b *Matrix) {
	checkABT(dst, a, b)
	if w := shardWidth(a.Rows, a.Rows*b.Rows*a.Cols); w <= 1 {
		matMulABTRows(dst, a, b, 0, a.Rows, false)
	} else {
		parallelRows(w, a.Rows, func(lo, hi int) { matMulABTRows(dst, a, b, lo, hi, false) })
	}
}

// MatMulABTAddInto computes dst += a·bᵀ.
func MatMulABTAddInto(dst, a, b *Matrix) {
	checkABT(dst, a, b)
	if w := shardWidth(a.Rows, a.Rows*b.Rows*a.Cols); w <= 1 {
		matMulABTRows(dst, a, b, 0, a.Rows, true)
	} else {
		parallelRows(w, a.Rows, func(lo, hi int) { matMulABTRows(dst, a, b, lo, hi, true) })
	}
}

// MatMulATB returns aᵀ·b without materializing the transpose.
func MatMulATB(a, b *Matrix) *Matrix {
	out := New(a.Cols, b.Cols)
	MatMulATBInto(out, a, b)
	return out
}

// MatMulATBInto computes dst = aᵀ·b, reusing dst's storage. This is the
// gradient-accumulation shape (dW = dYᵀ·X) done transpose-free.
func MatMulATBInto(dst, a, b *Matrix) {
	checkATB(dst, a, b)
	if w := shardWidth(a.Cols, a.Rows*a.Cols*b.Cols); w <= 1 {
		matMulATBRows(dst, a, b, 0, a.Cols, false)
	} else {
		parallelRows(w, a.Cols, func(lo, hi int) { matMulATBRows(dst, a, b, lo, hi, false) })
	}
}

// MatMulATBAddInto computes dst += aᵀ·b.
func MatMulATBAddInto(dst, a, b *Matrix) {
	checkATB(dst, a, b)
	if w := shardWidth(a.Cols, a.Rows*a.Cols*b.Cols); w <= 1 {
		matMulATBRows(dst, a, b, 0, a.Cols, true)
	} else {
		parallelRows(w, a.Cols, func(lo, hi int) { matMulATBRows(dst, a, b, lo, hi, true) })
	}
}

func checkABT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulABT shape mismatch %dx%d · (%dx%d)ᵀ -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}

func checkATB(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulATB shape mismatch (%dx%d)ᵀ · %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, dst.Rows, dst.Cols))
	}
}
