package nn

import "repro/internal/tensor"

//go:noescape
func colSums16(sum, x *float32, rows, stride int)

//go:noescape
func colSums8(sum, x *float32, rows, stride int)

//go:noescape
func colSqDevs16(sq, x, mean *float32, rows, stride int)

//go:noescape
func colSqDevs8(sq, x, mean *float32, rows, stride int)

//go:noescape
func bnApply8(dst, x, gamma, beta, mean, invStd *float32, groups, k, cols, stride int, relu bool)

// sweepBlock bounds one assembly call to about this many elements — tens of
// µs: assembly is not asynchronously preemptible, and the garbage collector
// and serve's watchdog wait on it.
const sweepBlock = 1 << 16

// colSumsAVX2 adds to sum, for columns [b, b+len(sum)) of x, len(sum) a
// multiple of 8, Σx over the rows in index order when mean is nil and
// Σ(x−mean)² otherwise: colStats' two loops, a lane per column.
//
//edgepc:hotpath
func colSumsAVX2(sum, mean []float32, x *tensor.Matrix, b int) {
	c := x.Cols
	if x.Rows == 0 {
		return
	}
	// The assembly checks no bound; this does, for the last address it reads.
	_ = x.Data[(x.Rows-1)*c+b+len(sum)-1]
	for r := 0; r < x.Rows; r += sweepBlock / 16 {
		rows := min(sweepBlock/16, x.Rows-r)
		for j := 0; j < len(sum); j += 16 {
			px := &x.Data[r*c+b+j]
			switch wide := len(sum)-j >= 16; {
			case mean == nil && wide:
				colSums16(&sum[j], px, rows, c)
			case mean == nil:
				colSums8(&sum[j], px, rows, c)
			case wide:
				colSqDevs16(&sum[j], px, &mean[j], rows, c)
			default:
				colSqDevs8(&sum[j], px, &mean[j], rows, c)
			}
		}
	}
}

// applyAVX2 is apply over columns [0, cols) of dst rows [lo, hi), cols a
// multiple of 8 and at least 8.
//
//edgepc:hotpath
func applyAVX2(dst, x *tensor.Matrix, gamma, beta, mean, invStd []float32, relu bool, k, lo, hi, cols int) {
	c := x.Cols
	if lo >= hi {
		return
	}
	_, _ = dst.Data[hi*c-1], x.Data[hi*k*c-1]
	_, _, _, _ = gamma[cols-1], beta[cols-1], mean[cols-1], invStd[cols-1]
	step := max(1, sweepBlock/(k*c))
	for g := lo; g < hi; g += step {
		bnApply8(&dst.Data[g*c], &x.Data[g*k*c], &gamma[0], &beta[0], &mean[0], &invStd[0], min(step, hi-g), k, cols, c, relu)
	}
}
