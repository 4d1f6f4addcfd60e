package tensor

import "repro/internal/parallel"

// blockedBackend is the cache-blocked fp32 backend: a·b + bias runs a
// register-tiled kernel — on amd64 with AVX2 the assembly one of
// gemm_amd64.s, 4 rows × 16 columns a tile, elsewhere and for ragged edges the
// Go one, 4 rows of a × 4 values of k a step. Both keep the per-cell
// accumulation order of the naive ikj loop — k strictly ascending, one
// accumulator per output cell, the product rounded before the add — so
// results match the reference backend bit-for-bit while touching each output
// row a quarter as often. Rows are distributed across workers with
// internal/parallel exactly like the naive kernels, so the parallel split
// never changes numerics either.
//
// Stateless and safe for concurrent use by weight-sharing replicas.
type blockedBackend struct{}

var blockedShared Backend = blockedBackend{}

// Blocked returns the shared cache-blocked backend.
func Blocked() Backend { return blockedShared }

func (blockedBackend) Name() string { return BackendBlocked }

// blockedMinWork is minMatMulWork for the kernel blocked runs on this host: a
// grain is a property of the kernel, and the AVX2 one retires about 30
// multiply-adds per ns where the Go one retires 2.5. Measured on the 2-core
// reference host, a two-way split costs about 15 µs when the second core is
// there and 30–50 µs when the hypervisor has taken it away, so it starts
// where a half is worth several times that: 8 M multiply-adds in all, 280 µs
// (EXPERIMENTS.md "Vector kernels (PR 24)"; no layer of W1 is that large).
var blockedMinWork = minMatMulWork

func init() {
	if hasAVX2 {
		blockedMinWork = 1 << 22
	}
}

// HasAVX2 reports whether this process runs the AVX2 kernels: the answer of
// the one CPUID probe (amd64 only), which internal/nn reads for BatchNorm's
// eval sweeps instead of probing again.
func HasAVX2() bool { return hasAVX2 }

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
	if workers := matMulWorkers(a.Rows, a.Cols, b.Cols, blockedMinWork); workers > 1 {
		parallel.ForSplit(a.Rows, workers, func(lo, hi int) { blockedMatMulRows(out, a, b, bias, lo, hi) })
	} else {
		blockedMatMulRows(out, a, b, bias, 0, a.Rows)
	}
	return nil
}

// blockedMatMulRows computes out rows [lo, hi) of a·b + bias. With AVX2 the
// vector kernel takes the rows up to a multiple of 4 and the columns up to a
// multiple of 8; the ragged edges, and every other host, run the Go kernel —
// the reference the vector code is tested against.
//
//edgepc:hotpath
func blockedMatMulRows(out, a, b *Matrix, bias []float32, lo, hi int) {
	if vn := b.Cols &^ 7; hasAVX2 && vn > 0 && hi-lo >= 4 && a.Cols > 0 {
		vhi := lo + (hi-lo)&^3
		gemmAVX2(out, a, b, bias, lo, vhi, vn)
		blockedMatMulTile(out, a, b, bias, lo, vhi, vn, b.Cols)
		lo = vhi
	}
	blockedMatMulTile(out, a, b, bias, lo, hi, 0, b.Cols)
}

// blockedMatMulTile runs the tiled Go kernel over out rows [lo, hi), columns
// [jlo, jhi).
//
//edgepc:hotpath
func blockedMatMulTile(out, a, b *Matrix, bias []float32, lo, hi, jlo, jhi int) {
	if lo >= hi || jlo >= jhi {
		return
	}
	if bias != nil {
		bias = bias[jlo:jhi]
	}
	kc := a.Cols
	i := lo
	for ; i+4 <= hi; i += 4 {
		ar0, ar1, ar2, ar3 := a.Row(i), a.Row(i+1), a.Row(i+2), a.Row(i+3)
		or0, or1, or2, or3 := out.Row(i)[jlo:jhi], out.Row(i + 1)[jlo:jhi], out.Row(i + 2)[jlo:jhi], out.Row(i + 3)[jlo:jhi]
		for j := range or0 {
			or0[j] = 0
			or1[j] = 0
			or2[j] = 0
			or3[j] = 0
		}
		k := 0
		for ; k+4 <= kc; k += 4 {
			b0, b1, b2, b3 := b.Row(k)[jlo:jhi], b.Row(k + 1)[jlo:jhi], b.Row(k + 2)[jlo:jhi], b.Row(k + 3)[jlo:jhi]
			a00, a01, a02, a03 := ar0[k], ar0[k+1], ar0[k+2], ar0[k+3]
			a10, a11, a12, a13 := ar1[k], ar1[k+1], ar1[k+2], ar1[k+3]
			a20, a21, a22, a23 := ar2[k], ar2[k+1], ar2[k+2], ar2[k+3]
			a30, a31, a32, a33 := ar3[k], ar3[k+1], ar3[k+2], ar3[k+3]
			for j, v0 := range b0 {
				v1, v2, v3 := b1[j], b2[j], b3[j]
				// Left-to-right evaluation keeps each cell's partial sums in
				// ascending-k order — the bit-identity invariant.
				or0[j] = or0[j] + float32(a00*v0) + float32(a01*v1) + float32(a02*v2) + float32(a03*v3)
				or1[j] = or1[j] + float32(a10*v0) + float32(a11*v1) + float32(a12*v2) + float32(a13*v3)
				or2[j] = or2[j] + float32(a20*v0) + float32(a21*v1) + float32(a22*v2) + float32(a23*v3)
				or3[j] = or3[j] + float32(a30*v0) + float32(a31*v1) + float32(a32*v2) + float32(a33*v3)
			}
		}
		for ; k < kc; k++ {
			br := b.Row(k)[jlo:jhi]
			a0, a1, a2, a3 := ar0[k], ar1[k], ar2[k], ar3[k]
			for j, bv := range br {
				or0[j] += float32(a0 * bv)
				or1[j] += float32(a1 * bv)
				or2[j] += float32(a2 * bv)
				or3[j] += float32(a3 * bv)
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
		or := out.Row(i)[jlo:jhi]
		for j := range or {
			or[j] = 0
		}
		k := 0
		for ; k+4 <= kc; k += 4 {
			b0, b1, b2, b3 := b.Row(k)[jlo:jhi], b.Row(k + 1)[jlo:jhi], b.Row(k + 2)[jlo:jhi], b.Row(k + 3)[jlo:jhi]
			a0, a1, a2, a3 := ar[k], ar[k+1], ar[k+2], ar[k+3]
			for j, v0 := range b0 {
				or[j] = or[j] + float32(a0*v0) + float32(a1*b1[j]) + float32(a2*b2[j]) + float32(a3*b3[j])
			}
		}
		for ; k < kc; k++ {
			av := ar[k]
			for j, bv := range b.Row(k)[jlo:jhi] {
				or[j] += float32(av * bv)
			}
		}
		for j, bv := range bias {
			or[j] += bv
		}
	}
}

// ConcatInto is data movement: nothing to block over.
//
//edgepc:hotpath
func (blockedBackend) ConcatInto(out, a, b *Matrix) error { return ConcatInto(out, a, b) }
