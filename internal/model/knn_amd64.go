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
