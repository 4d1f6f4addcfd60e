package morton

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/parallel"
)

// DefaultTotalBits is the paper's chosen Morton code width (a = 32), striking
// its reported balance between memory overhead (Na/8 bytes per frame) and
// inference accuracy. ⌊32/3⌋ = 10 bits per axis → a 1024³ voxel grid.
const DefaultTotalBits = 32

// ErrBits reports an unsupported Morton code width.
var ErrBits = errors.New("morton: total bits must be in [3, 63]")

// Encoder voxelizes points into an integer grid and produces Morton codes.
//
// The grid is anchored at Min with cubic voxels of side R; per-axis voxel
// indexes are clamped to [0, 2^BitsPerAxis). Clamping (rather than erroring)
// matches the behaviour needed for streaming input where occasional points
// fall marginally outside the reference bounding box.
type Encoder struct {
	Min         geom.Point3 // minimum corner of the voxel grid (the paper's {x_min, y_min, z_min})
	R           float64     // grid size r (voxel edge length)
	BitsPerAxis int         // ⌊a/3⌋ in the paper
}

// NewEncoder builds an encoder for the given bounding box using totalBits
// (the paper's a) split evenly across the three axes. The grid size is
// r = D / 2^⌊a/3⌋ where D is the box's longest extent (§5.1.3). A degenerate
// (zero-extent or invalid) box gets a unit grid so encoding stays total.
func NewEncoder(bounds geom.AABB, totalBits int) (*Encoder, error) {
	// The constructors are small enough to inline, so a caller that copies
	// the encoder out keeps it off the heap.
	e, err := encoderFor(bounds, totalBits)
	if err != nil {
		return nil, err
	}
	return &e, nil
}

func encoderFor(bounds geom.AABB, totalBits int) (Encoder, error) {
	if totalBits < 3 || totalBits > 63 {
		return Encoder{}, fmt.Errorf("%w: got %d", ErrBits, totalBits)
	}
	bpa := totalBits / 3
	d := bounds.MaxDim()
	if !bounds.IsValid() || d <= 0 || math.IsNaN(d) || math.IsInf(d, 0) {
		return Encoder{Min: geom.Point3{}, R: 1, BitsPerAxis: bpa}, nil
	}
	r := d / float64(uint64(1)<<uint(bpa))
	return Encoder{Min: bounds.Min, R: r, BitsPerAxis: bpa}, nil
}

// NewEncoderWithGrid builds an encoder with an explicit grid size r and
// minimum corner, as in the paper's Algorithm 1 inputs. bitsPerAxis bounds
// the representable voxel index range.
func NewEncoderWithGrid(min geom.Point3, r float64, bitsPerAxis int) (*Encoder, error) {
	e, err := encoderWithGrid(min, r, bitsPerAxis)
	if err != nil {
		return nil, err
	}
	return &e, nil
}

func encoderWithGrid(min geom.Point3, r float64, bitsPerAxis int) (Encoder, error) {
	if bitsPerAxis < 1 || bitsPerAxis > MaxBitsPerAxis {
		return Encoder{}, fmt.Errorf("%w: %d bits per axis", ErrBits, bitsPerAxis)
	}
	if r <= 0 || math.IsNaN(r) || math.IsInf(r, 0) {
		return Encoder{}, fmt.Errorf("morton: grid size must be positive and finite, got %v", r)
	}
	return Encoder{Min: min, R: r, BitsPerAxis: bitsPerAxis}, nil
}

// TotalBits returns the code width 3 × BitsPerAxis.
func (e *Encoder) TotalBits() int { return 3 * e.BitsPerAxis }

// MemoryBytes returns the storage needed for the Morton codes of n points at
// this encoder's width, as accounted in §5.1.3 (Na/8 bytes, rounded up to
// whole bytes per code — a 30-bit code occupies 4 bytes).
func (e *Encoder) MemoryBytes(n int) int {
	return n * ((e.TotalBits() + 7) / 8)
}

// voxel returns the clamped integer voxel index of a scalar coordinate:
// ⌊(v − min)/R⌋ clamped to [0, 2^BitsPerAxis), and 0 for a NaN.
func (e *Encoder) voxel(v, min float64) uint32 {
	n := uint64(1) << uint(e.BitsPerAxis)
	return clampVoxel((v-min)/e.R, float64(n), uint32(n-1))
}

// clampVoxel is voxel's clamp of the quotient f to [0, top), last = top − 1
// and top a power of two. On the range left after the two clamps f is
// non-negative and below 2^21, where the truncating conversion is the floor.
func clampVoxel(f, top float64, last uint32) uint32 {
	if !(f >= 0) {
		return 0
	}
	if f >= top {
		return last
	}
	return uint32(f)
}

// Code returns the Morton code of a single point.
//
//edgepc:hotpath
func (e *Encoder) Code(p geom.Point3) uint64 {
	return Encode3(e.voxel(p.X, e.Min.X), e.voxel(p.Y, e.Min.Y), e.voxel(p.Z, e.Min.Z))
}

// EncodeInto writes the Morton code of pts[i] into dst[i]; dst must be at
// least as long as pts. The grid's constants are loaded once, not per point.
//
//edgepc:hotpath
func (e *Encoder) EncodeInto(dst []uint64, pts []geom.Point3) {
	dst = dst[:len(pts)]
	min, r := e.Min, e.R
	n := uint64(1) << uint(e.BitsPerAxis)
	top, last := float64(n), uint32(n-1)
	for i, p := range pts {
		dst[i] = Encode3(
			clampVoxel((p.X-min.X)/r, top, last),
			clampVoxel((p.Y-min.Y)/r, top, last),
			clampVoxel((p.Z-min.Z)/r, top, last))
	}
}

// EncodeCloud computes the Morton code of every point. This is the paper's
// MC_Gen (Algorithm 1, lines 1–6): every iteration is independent, so the
// loop runs fully parallel. If dst has capacity it is reused.
//
//edgepc:hotpath
func (e *Encoder) EncodeCloud(c *geom.Cloud, dst []uint64) []uint64 {
	n := c.Len()
	if cap(dst) < n {
		//edgepc:lint-ignore hotpathalloc cap-guarded grow; steady-state frames pass a reused dst
		dst = make([]uint64, n)
	}
	dst = dst[:n]
	pts := c.Points
	parallel.ForChunks(n, func(lo, hi int) {
		e.EncodeInto(dst[lo:hi], pts[lo:hi])
	})
	return dst
}
