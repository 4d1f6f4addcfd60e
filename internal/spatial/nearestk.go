package spatial

import (
	"repro/internal/geom"
	"repro/internal/tensor"
)

// nearestKVec is the answer of tensor's one CPUID probe: whether NearestK
// tries the AVX2 kernel before the Go loop it is tested against. A variable
// only so tests can run both on one host.
var nearestKVec = tensor.HasAVX2()

// NearestK is the exact nearest-k selection of the linear passes over a
// small candidate set: the Morton window's points and a scan level of the
// index (the 3-NN join keeps best3). It fills idx and d (k = len(idx) ≥ 1
// long) with the k smallest (q.DistSq(pts[i]), i) pairs over the positions
// i of pts other than skip (−1 for none), ascending: what the linear scan
// keeps, the lower position first among equal distances (geom.InsertTopK's
// order, NaN included). There must be at least k candidates. dist and hit
// are scratch of len(pts) rounded up to a multiple of 4.
//
// The AVX2 kernel answers when no distance is NaN, k ≤ 16, and the few
// candidates it ranks are at most 64; otherwise, and on a host without
// AVX2, the Go loop does.
//
//edgepc:hotpath
func NearestK(q *geom.Point3, pts []geom.Point3, skip int, dist []float64, hit []int32, idx []int, d []float64) {
	if nearestKVec {
		n4 := (len(pts) + 3) &^ 3
		_, _, _ = dist[n4-1], hit[n4-1], d[len(idx)-1]
		if nearestKAVX2(q, &pts[0], len(pts), len(idx), skip, &dist[0], &hit[0], &idx[0], &d[0]) {
			return
		}
	}
	nearestKGo(*q, pts, skip, idx, d)
}

// nearestKGo is NearestK's loop: the fallback of the AVX2 kernel and its
// oracle.
func nearestKGo(q geom.Point3, pts []geom.Point3, skip int, idx []int, d []float64) {
	geom.ClearTopK(idx, d)
	for i, p := range pts {
		if i != skip {
			geom.InsertTopK(idx, d, i, q.DistSq(p))
		}
	}
}
