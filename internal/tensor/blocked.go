package tensor

import "repro/internal/parallel"

// blockedBackend is the cache-blocked fp32 backend: the MatMul family runs a
// register-tiled kernel (4 rows of a × 4 values of k per tile) that keeps the
// per-cell accumulation order identical to the naive ikj loop — k strictly
// ascending, one accumulator per output cell — so results match the reference
// backend bit-for-bit while touching each output row a quarter as often. Rows
// are distributed across workers with internal/parallel exactly like the
// naive kernels, so the parallel split never changes numerics either.
//
// Data-movement kernels (gather/concat) and the training-only ops
// have nothing to block over; they delegate to the reference implementations.
//
// Stateless and safe for concurrent use by weight-sharing replicas.
type blockedBackend struct{}

var blockedShared Backend = blockedBackend{}

// Blocked returns the shared cache-blocked backend.
func Blocked() Backend { return blockedShared }

func (blockedBackend) Name() string { return BackendBlocked }

// MatMulInto computes a·b into out with the tiled kernel. Validation matches
// the reference MatMulInto.
//
//edgepc:hotpath
func (be blockedBackend) MatMulInto(out, a, b *Matrix) error {
	return be.MatMulBiasInto(out, a, b, nil)
}

// MatMulBiasInto computes a·b + bias into out with the tiled kernel; the
// bias lands on each row tile while it is still in cache. Validation and
// split match the reference MatMulBiasInto.
//
//edgepc:hotpath
func (blockedBackend) MatMulBiasInto(out, a, b *Matrix, bias []float32) error {
	if err := checkMatMul(out, a, b, bias); err != nil {
		return err
	}
	if workers := matMulWorkers(a.Rows, a.Cols, b.Cols); workers > 1 {
		parallel.ForSplit(a.Rows, workers, func(lo, hi int) { blockedMatMulRows(out, a, b, bias, lo, hi) })
	} else {
		blockedMatMulRows(out, a, b, bias, 0, a.Rows)
	}
	return nil
}

// blockedMatMulRows runs the tiled a·b (+ bias) kernel over out rows
// [lo, hi).
//
//edgepc:hotpath
func blockedMatMulRows(out, a, b *Matrix, bias []float32, lo, hi int) {
	kc := a.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		ar0, ar1, ar2, ar3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		or0, or1, or2, or3 := out.Row(i), out.Row(i+1), out.Row(i+2), out.Row(i+3)
		for j := range or0 {
			or0[j] = 0
			or1[j] = 0
			or2[j] = 0
			or3[j] = 0
		}
		k := 0
		for ; k+4 <= kc; k += 4 {
			b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
			a00, a01, a02, a03 := ar0[k], ar0[k+1], ar0[k+2], ar0[k+3]
			a10, a11, a12, a13 := ar1[k], ar1[k+1], ar1[k+2], ar1[k+3]
			a20, a21, a22, a23 := ar2[k], ar2[k+1], ar2[k+2], ar2[k+3]
			a30, a31, a32, a33 := ar3[k], ar3[k+1], ar3[k+2], ar3[k+3]
			for j, v0 := range b0 {
				v1, v2, v3 := b1[j], b2[j], b3[j]
				// Left-to-right evaluation keeps each cell's partial sums in
				// ascending-k order — the bit-identity invariant.
				or0[j] = or0[j] + a00*v0 + a01*v1 + a02*v2 + a03*v3
				or1[j] = or1[j] + a10*v0 + a11*v1 + a12*v2 + a13*v3
				or2[j] = or2[j] + a20*v0 + a21*v1 + a22*v2 + a23*v3
				or3[j] = or3[j] + a30*v0 + a31*v1 + a32*v2 + a33*v3
			}
		}
		for ; k < kc; k++ {
			br := b.Row(k)
			a0, a1, a2, a3 := ar0[k], ar1[k], ar2[k], ar3[k]
			for j, bv := range br {
				or0[j] += a0 * bv
				or1[j] += a1 * bv
				or2[j] += a2 * bv
				or3[j] += a3 * bv
			}
		}
		for j, bv := range bias {
			or0[j] += bv
			or1[j] += bv
			or2[j] += bv
			or3[j] += bv
		}
	}
	// Ragged row remainder: one row at a time, k still tiled by 4.
	for ; i < hi; i++ {
		ar := a.Row(i)
		or := out.Row(i)
		for j := range or {
			or[j] = 0
		}
		k := 0
		for ; k+4 <= kc; k += 4 {
			b0, b1, b2, b3 := b.Row(k), b.Row(k+1), b.Row(k+2), b.Row(k+3)
			a0, a1, a2, a3 := ar[k], ar[k+1], ar[k+2], ar[k+3]
			for j, v0 := range b0 {
				or[j] = or[j] + a0*v0 + a1*b1[j] + a2*b2[j] + a3*b3[j]
			}
		}
		for ; k < kc; k++ {
			av := ar[k]
			for j, bv := range b.Row(k) {
				or[j] += av * bv
			}
		}
		for j, bv := range bias {
			or[j] += bv
		}
	}
}

// MatMulBTInto computes a·bᵀ into out with a 4×4 output tile (16 register
// accumulators streaming the shared k dimension once per tile). One
// accumulator per cell, k ascending — bit-identical to the reference kernel.
//
//edgepc:hotpath
func (blockedBackend) MatMulBTInto(out, a, b *Matrix) error {
	if err := checkMatMulBT(out, a, b); err != nil {
		return err
	}
	n := b.Rows
	parallel.ForChunks(a.Rows, func(lo, hi int) {
		i := lo
		for ; i+4 <= hi; i += 4 {
			ar0, ar1, ar2, ar3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
			or0, or1, or2, or3 := out.Row(i), out.Row(i+1), out.Row(i+2), out.Row(i+3)
			j := 0
			for ; j+4 <= n; j += 4 {
				br0, br1, br2, br3 := b.Row(j), b.Row(j+1), b.Row(j+2), b.Row(j+3)
				var s00, s01, s02, s03 float32
				var s10, s11, s12, s13 float32
				var s20, s21, s22, s23 float32
				var s30, s31, s32, s33 float32
				for k, a0 := range ar0 {
					a1, a2, a3 := ar1[k], ar2[k], ar3[k]
					v0, v1, v2, v3 := br0[k], br1[k], br2[k], br3[k]
					s00 += a0 * v0
					s01 += a0 * v1
					s02 += a0 * v2
					s03 += a0 * v3
					s10 += a1 * v0
					s11 += a1 * v1
					s12 += a1 * v2
					s13 += a1 * v3
					s20 += a2 * v0
					s21 += a2 * v1
					s22 += a2 * v2
					s23 += a2 * v3
					s30 += a3 * v0
					s31 += a3 * v1
					s32 += a3 * v2
					s33 += a3 * v3
				}
				or0[j], or0[j+1], or0[j+2], or0[j+3] = s00, s01, s02, s03
				or1[j], or1[j+1], or1[j+2], or1[j+3] = s10, s11, s12, s13
				or2[j], or2[j+1], or2[j+2], or2[j+3] = s20, s21, s22, s23
				or3[j], or3[j+1], or3[j+2], or3[j+3] = s30, s31, s32, s33
			}
			for ; j < n; j++ {
				br := b.Row(j)
				var s0, s1, s2, s3 float32
				for k, av := range ar0 {
					bv := br[k]
					s0 += av * bv
					s1 += ar1[k] * bv
					s2 += ar2[k] * bv
					s3 += ar3[k] * bv
				}
				or0[j], or1[j], or2[j], or3[j] = s0, s1, s2, s3
			}
		}
		for ; i < hi; i++ {
			ar := a.Row(i)
			or := out.Row(i)
			for j := 0; j < n; j++ {
				br := b.Row(j)
				var sum float32
				for k, av := range ar {
					sum += av * br[k]
				}
				or[j] = sum
			}
		}
	})
	return nil
}

// The remaining kernels gain nothing from blocking; delegate to the
// reference implementations (which are already row-parallel where it pays).

func (blockedBackend) MatMulATInto(out, a, b *Matrix) error { return MatMulATInto(out, a, b) }

//edgepc:hotpath
func (blockedBackend) GatherInto(out, src *Matrix, idx []int) error {
	return GatherInto(out, src, idx)
}

func (blockedBackend) ScatterAdd(dst, src *Matrix, idx []int) error {
	return ScatterAdd(dst, src, idx)
}

//edgepc:hotpath
func (blockedBackend) ConcatInto(out, a, b *Matrix) error { return ConcatInto(out, a, b) }
