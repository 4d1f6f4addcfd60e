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

//go:noescape
func bnGradSums16(sumG, sumGH, x, grad, mean, invStd, gamma, beta *float32, rows, stride int, relu bool)

//go:noescape
func bnGradSums8(sumG, sumGH, x, grad, mean, invStd, gamma, beta *float32, rows, stride int, relu bool)

//go:noescape
func bnGradApply8(dst, x, grad, mean, invStd, gamma, beta, scale, sumG, sumGH *float32, n float32, rows, cols, stride int, relu bool)

//go:noescape
func addTo8(dst, src *float32, n int)

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

// gradSumsAVX2 adds to sumG and sumGH, for columns [b, b+len(sumG)) of x and
// g, len(sumG) a multiple of 8, Σg and Σg·x̂ over the rows in index order:
// gradSums' Go loop, a lane per column. mean, invStd, gamma and beta are the
// same columns' statistics and parameters.
//
//edgepc:hotpath
func gradSumsAVX2(sumG, sumGH []float32, x, g *tensor.Matrix, mean, invStd, gamma, beta []float32, b int, relu bool) {
	c, w := x.Cols, len(sumG)
	if x.Rows == 0 {
		return
	}
	// The assembly checks no bound; these do, for every address it touches.
	last := (x.Rows-1)*c + b + w - 1
	_, _, _, _ = x.Data[last], g.Data[last], sumGH[w-1], mean[w-1]
	_, _, _ = invStd[w-1], gamma[w-1], beta[w-1]
	for r := 0; r < x.Rows; r += sweepBlock / 16 {
		rows := min(sweepBlock/16, x.Rows-r)
		for j := 0; j < w; j += 16 {
			off := r*c + b + j
			if w-j >= 16 {
				bnGradSums16(&sumG[j], &sumGH[j], &x.Data[off], &g.Data[off], &mean[j], &invStd[j], &gamma[j], &beta[j], rows, c, relu)
			} else {
				bnGradSums8(&sumG[j], &sumGH[j], &x.Data[off], &g.Data[off], &mean[j], &invStd[j], &gamma[j], &beta[j], rows, c, relu)
			}
		}
	}
}

// gradApplyAVX2 is gradApply over columns [0, cols) of dst rows [lo, hi), cols
// a multiple of 8 and at least 8.
//
//edgepc:hotpath
func gradApplyAVX2(dst, x, g *tensor.Matrix, p *gradParams, relu bool, lo, hi, cols int) {
	c := x.Cols
	if lo >= hi {
		return
	}
	_, _, _ = dst.Data[hi*c-1], x.Data[hi*c-1], g.Data[hi*c-1]
	_, _, _, _ = p.mean[cols-1], p.invStd[cols-1], p.gamma[cols-1], p.beta[cols-1]
	_, _, _ = p.scale[cols-1], p.sumG[cols-1], p.sumGH[cols-1]
	step := max(1, sweepBlock/c)
	for r := lo; r < hi; r += step {
		off := r * c
		bnGradApply8(&dst.Data[off], &x.Data[off], &g.Data[off], &p.mean[0], &p.invStd[0], &p.gamma[0], &p.beta[0],
			&p.scale[0], &p.sumG[0], &p.sumGH[0], p.n, min(step, hi-r), cols, c, relu)
	}
}

// addAVX2 adds src to dst, both of length n·8.
//
//edgepc:hotpath
func addAVX2(dst, src []float32) {
	if len(dst) == 0 {
		return
	}
	_ = src[len(dst)-1]
	for i := 0; i < len(dst); i += sweepBlock {
		addTo8(&dst[i], &src[i], min(sweepBlock, len(dst)-i))
	}
}
