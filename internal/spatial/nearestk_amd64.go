package spatial

import "repro/internal/geom"

// nearestKAVX2 is the exact nearest-k kernel (nearestk_amd64.s): nearestKGo
// over n ≥ 1 points for 1 ≤ k ≤ 16 when it reports true; dist and hit are
// scratch of n rounded up to a multiple of 4.
//
//go:noescape
func nearestKAVX2(q, pts *geom.Point3, n, k, skip int, dist *float64, hit *int32, idx *int, d *float64) (ok bool)
