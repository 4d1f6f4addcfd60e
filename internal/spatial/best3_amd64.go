package spatial

import "repro/internal/geom"

// best3AVX2 is the join's AVX2 kernel (nearestk_amd64.s): best3Go over n ≥ 1
// candidates, with hit room for n rounded up to a multiple of 4.
//
//go:noescape
func best3AVX2(q *geom.Point3, x, y, z *float64, n int, dist *float64, hit *int32) (third float64, hits int)
