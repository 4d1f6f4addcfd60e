package sample

import "repro/internal/geom"

// The AVX2 kernels of refreshAVX2 (bucketfps_amd64.s). Each takes at least
// four lanes and ends a ragged length with a block that overlaps the one
// before; the Go glue runs the Go loops below four and checks the bounds the
// assembly does not.

//go:noescape
func fpsReplay(x, y, z *float64, pos *int, n int, box *geom.AABB, cm float64) uint64

//go:noescape
func fpsUpdate(dist, x, y, z *float64, n int, px, py, pz float64) float64

//go:noescape
func fpsFindEq(dist *float64, n int, m float64) int
