//go:build !amd64

package spatial

import "repro/internal/geom"

// Only amd64 has vector kernels: tensor.HasAVX2 is false here, so NearestK
// always runs nearestKGo and never calls this.

func nearestKAVX2(q, pts *geom.Point3, n, k, skip int, dist *float64, hit *int32, idx *int, d *float64) (ok bool) {
	panic("spatial: vector kernel called without AVX2")
}
