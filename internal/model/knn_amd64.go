package model

//go:noescape
func knnScan8(dist *float64, q, ft *float32, n, c, ld int, thr float64, early bool) int

// knnSpan bounds one knnScan8 call to about this many channel-candidate
// terms: assembly is not asynchronously preemptible, and the garbage
// collector and serve's watchdog wait on it.
const knnSpan = 1 << 16

// knnScanAVX2 returns the offset in [0, n) of the first block of 8 candidates
// of ft (channel-major, row stride ld) with a survivor against thr, its 8
// distances in lanes, or n when there is none; n a multiple of 8.
//
//edgepc:hotpath
func knnScanAVX2(lanes *[8]float64, q, ft []float32, n, ld int, thr float64, early bool) int {
	c := len(q)
	// The assembly checks no bound; this does, for the last address it reads.
	_ = ft[(c-1)*ld+n-1]
	step := max(8, knnSpan/c&^7)
	for j := 0; j < n; j += step {
		span := min(step, n-j)
		if off := knnScan8(&lanes[0], &q[0], &ft[j], span, c, ld, thr, early); off < span {
			return j + off
		}
	}
	return n
}

//go:noescape
func knnSym8(dist *float64, q, ft *float32, thr *float64, n, c, ld int, qthr float64) (off, mask int)

// knnSymAVX2 is the symmetric join's scan of one query q against the
// len(thr) candidates of ft (channel-major, row stride ld), a multiple of 8:
// lane l of a block is bounded by max(qthr, thr[l]). It returns the offset
// of the first block with a lane not past its bound, those lanes as a mask
// (bit l for lane l) and the block's 8 distances in lanes; len(thr) and 0
// when there is none. Only finite features come here: a partial sum past
// the bound ends a block.
//
//edgepc:hotpath
func knnSymAVX2(lanes *[8]float64, q, ft []float32, thr []float64, ld int, qthr float64) (int, int) {
	c, n := len(q), len(thr)
	// The assembly checks no bound; this does, for the last address it reads.
	_ = ft[(c-1)*ld+n-1]
	step := max(8, knnSpan/c&^7)
	for j := 0; j < n; j += step {
		span := min(step, n-j)
		if off, mask := knnSym8(&lanes[0], &q[0], &ft[j], &thr[j], span, c, ld, qthr); off < span {
			return j + off, mask
		}
	}
	return n, 0
}
