//go:build !amd64

package sample

import "repro/internal/geom"

// Only amd64 has vector kernels: tensor.HasAVX2 is false here, so BucketFPS
// always refreshes with the Go loops and never calls these.

func fpsReplay(x, y, z *float64, pos *int, n int, box *geom.AABB, cm float64) uint64 {
	panic("sample: vector kernel called without AVX2")
}

func fpsUpdate(dist, x, y, z *float64, n int, px, py, pz float64) float64 {
	panic("sample: vector kernel called without AVX2")
}

func fpsFindEq(dist *float64, n int, m float64) int {
	panic("sample: vector kernel called without AVX2")
}
