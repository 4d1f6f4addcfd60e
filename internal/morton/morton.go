// Package morton implements 3-D Morton (Z-order) encoding, decoding and
// sorting — the structurization substrate of EdgePC (§4 of the paper).
//
// A Morton code maps an n-dimensional integer coordinate to one dimension by
// bitwise interleaving, preserving spatial locality: points that are close in
// 3-D space receive nearby codes. EdgePC voxelizes the cloud's bounding box
// into small cubes of side r (the grid size), assigns each point the integer
// index (i, j, k) of its voxel, interleaves those indexes into a single code,
// and sorts the points by code. The sorted ("structurized") order supports
// index-based sampling and neighbor search, the paper's two approximations.
//
// Bit layout: following the paper's worked example ((2,3,4) → 282), bit b of
// x lands at code bit 3b, bit b of y at 3b+1, and bit b of z at 3b+2.
package morton

import "math/bits"

// MaxBitsPerAxis is the largest per-axis resolution supported: 21 bits per
// axis fill 63 bits of a uint64 code.
const MaxBitsPerAxis = 21

// spread3 spreads the low 21 bits of x so that bit b moves to bit 3b.
func spread3(x uint64) uint64 {
	x &= 0x1fffff
	x = (x | x<<32) & 0x1f00000000ffff
	x = (x | x<<16) & 0x1f0000ff0000ff
	x = (x | x<<8) & 0x100f00f00f00f00f
	x = (x | x<<4) & 0x10c30c30c30c30c3
	x = (x | x<<2) & 0x1249249249249249
	return x
}

// compact3 is the inverse of spread3: it gathers every third bit (starting at
// bit 0) back into the low 21 bits.
func compact3(x uint64) uint64 {
	x &= 0x1249249249249249
	x = (x | x>>2) & 0x10c30c30c30c30c3
	x = (x | x>>4) & 0x100f00f00f00f00f
	x = (x | x>>8) & 0x1f0000ff0000ff
	x = (x | x>>16) & 0x1f00000000ffff
	x = (x | x>>32) & 0x1fffff
	return x
}

// spreadLUT[x] is spread3(x) for the 11-bit x: two lookups spread 21 bits.
var spreadLUT = func() (t [1 << 11]uint32) {
	for x := range t {
		t[x] = uint32(spread3(uint64(x)))
	}
	return t
}()

// spreadFast is spread3 by table: the low 11 bits, then the high 10 from
// code bit 33.
func spreadFast(x uint32) uint64 {
	return uint64(spreadLUT[x&(1<<11-1)]) | uint64(spreadLUT[(x>>11)&(1<<10-1)])<<33
}

// Encode3 interleaves the low 21 bits of x, y and z into a 63-bit Morton
// code. Following the paper's convention, x occupies the least-significant
// position of each 3-bit group.
func Encode3(x, y, z uint32) uint64 {
	return spreadFast(x) | spreadFast(y)<<1 | spreadFast(z)<<2
}

// Decode3 recovers the three axis indexes from a Morton code produced by
// Encode3.
func Decode3(code uint64) (x, y, z uint32) {
	return uint32(compact3(code)), uint32(compact3(code >> 1)), uint32(compact3(code >> 2))
}

// Level returns the number of bits per axis needed to represent coordinate
// values up to max (i.e. ceil(log2(max+1))).
func Level(max uint32) int {
	if max == 0 {
		return 0
	}
	return bits.Len32(max)
}
