//go:build !amd64

package spatial

import "repro/internal/geom"

// Only amd64 has vector kernels: tensor.HasAVX2 is false here, so the join
// always runs best3Go and never calls this.

func best3AVX2(q *geom.Point3, x, y, z *float64, n int, dist *float64, hit *int32) (third float64, hits int) {
	panic("spatial: vector kernel called without AVX2")
}
