package tensor

// hasAVX2 is the process's one CPUID probe: whether the blocked backend's
// a·b + bias, and nn.BatchNorm's eval sweeps through HasAVX2, run their AVX2
// kernels or the Go loops those are tested against.
var hasAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func gemm4x16(out, a, b, bias *float32, rows, k, n int)

//go:noescape
func gemm4x8(out, a, b, bias *float32, rows, k, n int)

//go:noescape
func gemmAT4x16(out, a, b *float32, rows, k, lda, n int)

//go:noescape
func gemmAT4x8(out, a, b *float32, rows, k, lda, n int)

// gemmRowBlock bounds one assembly call to 256 rows of a 16-column panel —
// tens of µs at k = 192: assembly is not asynchronously preemptible, and the
// garbage collector and serve's watchdog wait on it. The block of a (256 × k)
// then also stays in L2 while every panel of b passes over it.
const gemmRowBlock = 256

// gemmAVX2 computes columns [0, n) of out rows [lo, hi) of a·b + bias, n a
// multiple of 8 and hi−lo of 4, a.Cols ≥ 1: a lane is an output column, so
// each cell is summed as blockedMatMulTile sums it, eight cells at a time.
//
//edgepc:hotpath
func gemmAVX2(out, a, b *Matrix, bias []float32, lo, hi, n int) {
	k, ld := a.Cols, b.Cols
	// The assembly checks no bound; these do, for every address it touches.
	_, _, _ = out.Data[hi*ld-1], a.Data[hi*k-1], b.Data[k*ld-1]
	for i := lo; i < hi; i += gemmRowBlock {
		rows := min(gemmRowBlock, hi-i)
		for j := 0; j < n; j += 16 {
			var bp *float32
			if bias != nil {
				bp = &bias[j]
			}
			if n-j >= 16 {
				gemm4x16(&out.Data[i*ld+j], &a.Data[i*k], &b.Data[j], bp, rows, k, ld)
			} else {
				gemm4x8(&out.Data[i*ld+j], &a.Data[i*k], &b.Data[j], bp, rows, k, ld)
			}
		}
	}
}

// atRowBlock bounds one gemmAT call to this many rows of a and b, with
// gemmRowBlock output rows: the 16-column panel of b it walks once per tile
// (16 KB) then stays in L1.
const atRowBlock = 256

// gemmATAVX2 adds aᵀ·b to columns [0, n) of out rows [lo, hi), n a multiple
// of 8 and hi−lo of 4, a.Rows ≥ 1: a lane is an output column and each cell
// sums a's rows in ascending order, r-blocks in turn, as matMulATAccum does.
//
//edgepc:hotpath
func gemmATAVX2(out, a, b *Matrix, lo, hi, n int) {
	m, ld := a.Cols, b.Cols
	// The assembly checks no bound; these do, for every address it touches.
	_, _, _ = out.Data[(hi-1)*ld+n-1], a.Data[(a.Rows-1)*m+hi-1], b.Data[(b.Rows-1)*ld+n-1]
	for r := 0; r < a.Rows; r += atRowBlock {
		kr := min(atRowBlock, a.Rows-r)
		for i := lo; i < hi; i += gemmRowBlock {
			rows := min(gemmRowBlock, hi-i)
			for j := 0; j < n; j += 16 {
				if n-j >= 16 {
					gemmAT4x16(&out.Data[i*ld+j], &a.Data[r*m+i], &b.Data[r*ld+j], rows, kr, m, ld)
				} else {
					gemmAT4x8(&out.Data[i*ld+j], &a.Data[r*m+i], &b.Data[r*ld+j], rows, kr, m, ld)
				}
			}
		}
	}
}
