// Package core implements the EdgePC contribution (§4–§5 of the paper):
// Morton-code structurization of raw point clouds and the two approximation
// techniques it enables —
//
//   - index-based uniform sampling (down- and up-sampling) that "skips" the
//     O(nN) farthest-point-sampling stage (§5.1), and
//   - index-window neighbor search that "skips" the O(N²) ball-query / k-NN
//     stage (§5.2), optionally reusing neighbor indexes across consecutive
//     network modules (§5.2.3).
//
// The substrates it builds on are packages morton (encoding/sorting), geom
// (cloud types), sample and neighbor (the SOTA baselines being approximated).
package core

import (
	"errors"
	"fmt"

	"repro/internal/geom"
	"repro/internal/morton"
)

// ErrNotStructurized reports use of an index-based operation on data that has
// not been Morton-ordered.
var ErrNotStructurized = errors.New("core: operation requires structurized cloud")

// StructurizeOptions configures the Morton structurization pass.
type StructurizeOptions struct {
	// TotalBits is the Morton code width a (default: morton.DefaultTotalBits
	// = 32, the paper's pick). Larger widths reduce false neighbors at the
	// cost of Na/8 bytes of code storage per frame.
	TotalBits int
	// GridSize overrides the derived grid size r (> 0 to take effect). When
	// zero, r = D / 2^⌊a/3⌋ with D the bounding-box max dimension.
	GridSize float64
	// Bounds overrides the cloud's own bounding box — useful for streams of
	// frames that share a fixed reference volume.
	Bounds *geom.AABB
	// UseStdSort selects the comparison sort instead of the default radix
	// sort (exposed for the sort ablation).
	UseStdSort bool
}

// Structurized is a point cloud re-ordered by Morton code together with the
// bookkeeping needed by the index-based operations: the permutation back to
// original indexes and the sorted codes.
type Structurized struct {
	// Cloud holds the points in Morton order. Position j in this cloud is
	// the point with the j-th smallest Morton code.
	Cloud *geom.Cloud
	// Perm maps structurized position → original index (the paper's
	// I' = [i_0, …, i_{N-1}]).
	Perm []int
	// Codes are the Morton codes in sorted (structurized) order.
	Codes []uint64
	// Encoder is the voxelizer used, retained so later pipeline stages can
	// reuse the codes "without any extra overhead" (§5.2.3).
	Encoder *morton.Encoder
}

// Len returns the number of points.
func (s *Structurized) Len() int { return s.Cloud.Len() }

// OriginalIndexes maps a slice of structurized positions to original cloud
// indexes.
func (s *Structurized) OriginalIndexes(positions []int) []int {
	out := make([]int, len(positions))
	for i, p := range positions {
		out[i] = s.Perm[p]
	}
	return out
}

// Runs partitions the structurized order into contiguous buckets of equal
// Morton-code prefixes, aiming for roughly target buckets. It descends the
// prefix width (octree level) in 3-bit steps until the number of prefix runs
// reaches target, then splits any run longer than ~2·N/target so a few huge
// voxels cannot defeat bucket-level pruning. The result is bucket offsets
// 0 = off[0] < … < off[M] = N, directly usable as sample.BucketFPS.Buckets —
// prefix-aligned buckets have tight AABBs, which is what makes the
// distance-bound pruning effective.
func (s *Structurized) Runs(target int) []int {
	N := s.Len()
	if target < 1 {
		target = 1
	}
	if target > N {
		target = N
	}
	shift := s.Encoder.TotalBits()
	for shift > 0 {
		shift -= 3
		if countPrefixRuns(s.Codes, shift) >= target {
			break
		}
	}
	maxLen := 2*N/target + 1
	off := []int{0}
	runStart := 0
	for i := 1; i <= N; i++ {
		if i < N && s.Codes[i]>>shift == s.Codes[runStart]>>shift {
			continue
		}
		// Run [runStart, i): emit, splitting over-long runs evenly.
		if run := i - runStart; run > maxLen {
			pieces := (run + maxLen - 1) / maxLen
			for p := 1; p < pieces; p++ {
				off = append(off, runStart+p*run/pieces)
			}
		}
		off = append(off, i)
		runStart = i
	}
	return off
}

func countPrefixRuns(codes []uint64, shift int) int {
	runs := 0
	for i := range codes {
		if i == 0 || codes[i]>>shift != codes[i-1]>>shift {
			runs++
		}
	}
	return runs
}

// MemoryOverheadBytes returns the extra storage the structurization carries:
// the Morton codes at the encoder's width (§5.1.3's Na/8 accounting). The
// permutation is not counted because the SOTA pipeline also materializes
// sample index arrays of the same size.
func (s *Structurized) MemoryOverheadBytes() int {
	return s.Encoder.MemoryBytes(s.Len())
}

// Structurize re-orders a copy of the cloud by Morton code. The input cloud
// is not modified. Complexity: O(N) encoding + O(N) radix sorting
// (Algorithm 1 without the final sampling step). It is a Structurizer's
// pass into buffers of its own, with the sorted codes and the encoder kept
// beside the result.
func Structurize(c *geom.Cloud, opts StructurizeOptions) (*Structurized, error) {
	if err := checkCloud(c); err != nil {
		return nil, err
	}
	n := c.Len()
	perm := make([]int, n)
	var labels []int32
	if c.Labels != nil {
		labels = make([]int32, n)
	}
	var s Structurizer
	pts, feat, err := s.Into(c, opts, perm, labels)
	if err != nil {
		return nil, err
	}
	enc := s.enc
	return &Structurized{
		Cloud:   &geom.Cloud{Points: pts, Feat: feat, FeatDim: c.FeatDim, Labels: labels},
		Perm:    perm,
		Codes:   morton.SortedCodes(s.codes, perm),
		Encoder: &enc,
	}, nil
}

func checkCloud(c *geom.Cloud) error {
	if err := c.Validate(); err != nil {
		return err
	}
	if c.Len() == 0 {
		return fmt.Errorf("core: cannot structurize empty cloud")
	}
	return nil
}

// Structurizer is the structurization pass into buffers it keeps across
// calls, which a model graph runs on every frame: bounds, Morton encode,
// stable radix order and one gather of points, features and labels, all on
// the calling goroutine. Once its buffers have grown, Into allocates
// nothing. The zero value is ready to use; it is not safe for concurrent
// use.
type Structurizer struct {
	pts     []geom.Point3
	feat    []float32
	codes   []uint64 // in the input's order
	order   []int32  // structurized position → original index
	scratch []int32  // the radix sort's second buffer
	enc     morton.Encoder
}

// Into structurizes c as Structurize does. It returns the cloud's points and
// features in Morton order (nil features when c has none), which stay in
// s's buffers and are valid until the next Into, and writes the
// permutation into perm and the reordered labels into labels, which must
// each hold c.Len() elements; labels is nil when c has none.
//
//edgepc:hotpath
func (s *Structurizer) Into(c *geom.Cloud, opts StructurizeOptions, perm []int, labels []int32) ([]geom.Point3, []float32, error) {
	if err := checkCloud(c); err != nil {
		return nil, nil, err
	}
	n := c.Len()
	if len(perm) != n || (c.Labels == nil) != (labels == nil) || (labels != nil && len(labels) != n) {
		return nil, nil, fmt.Errorf("core: %d points, a permutation of %d and %d labels", n, len(perm), len(labels))
	}
	var bounds geom.AABB
	if opts.Bounds != nil {
		bounds = *opts.Bounds
	} else {
		bounds = geom.BoundsOf(c.Points)
	}
	if err := s.setEncoder(bounds, opts); err != nil {
		return nil, nil, err
	}

	s.codes = grow(s.codes, n)
	s.enc.EncodeInto(s.codes, c.Points)
	s.scratch = grow(s.scratch, n)
	if opts.UseStdSort {
		s.order = grow(s.order, n)
		for j, i := range morton.StdOrder(s.codes) {
			s.order[j] = int32(i)
		}
	} else {
		s.order = morton.OrderInto(s.order, s.scratch, s.codes)
	}

	s.pts = grow(s.pts, n)
	s.feat = grow(s.feat, len(c.Feat))
	d := c.FeatDim
	for j, i := range s.order {
		s.pts[j] = c.Points[i]
		perm[j] = int(i)
		if d > 0 {
			copy(s.feat[j*d:j*d+d], c.Feat[int(i)*d:int(i)*d+d])
		}
		if labels != nil {
			labels[j] = c.Labels[i]
		}
	}
	var feat []float32
	if d > 0 {
		feat = s.feat
	}
	return s.pts, feat, nil
}

// setEncoder makes s.enc the encoder for bounds under opts.
func (s *Structurizer) setEncoder(bounds geom.AABB, opts StructurizeOptions) error {
	bits := opts.TotalBits
	if bits == 0 {
		bits = morton.DefaultTotalBits
	}
	var enc *morton.Encoder
	var err error
	if opts.GridSize > 0 {
		enc, err = morton.NewEncoderWithGrid(bounds.Min, opts.GridSize, bits/3)
	} else {
		enc, err = morton.NewEncoder(bounds, bits)
	}
	if err != nil {
		return err
	}
	s.enc = *enc
	return nil
}

// grow returns buf resized to n, reallocated only when it is too short.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
