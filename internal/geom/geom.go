// Package geom provides the basic geometric types for point-cloud analytics:
// points, axis-aligned bounding boxes, and point clouds with optional
// per-point features and labels.
//
// A Cloud is the unit of data that flows through the EdgePC pipeline. Raw
// clouds are unordered and unevenly sampled; the morton package reorders them
// into a "structurized" form on which index-based sampling and neighbor
// search become meaningful.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// Point3 is a point in 3-D space. Coordinates are float64 at the geometry
// layer for numerical robustness; the neural-network layers use float32.
type Point3 struct {
	X, Y, Z float64
}

// Add returns p + q.
func (p Point3) Add(q Point3) Point3 { return Point3{p.X + q.X, p.Y + q.Y, p.Z + q.Z} }

// Sub returns p - q.
func (p Point3) Sub(q Point3) Point3 { return Point3{p.X - q.X, p.Y - q.Y, p.Z - q.Z} }

// Scale returns p scaled by s.
func (p Point3) Scale(s float64) Point3 {
	return Point3{float64(p.X * s), float64(p.Y * s), float64(p.Z * s)}
}

// Dot returns the dot product p·q.
func (p Point3) Dot(q Point3) float64 {
	return float64(p.X*q.X) + float64(p.Y*q.Y) + float64(p.Z*q.Z)
}

// Norm returns the Euclidean length of p.
func (p Point3) Norm() float64 { return math.Sqrt(p.Dot(p)) }

// DistSq returns the squared Euclidean distance between p and q. Squared
// distances are used throughout the samplers and searchers to avoid sqrt in
// inner loops (comparisons are order-preserving).
func (p Point3) DistSq(q Point3) float64 {
	dx, dy, dz := p.X-q.X, p.Y-q.Y, p.Z-q.Z
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// Dist returns the Euclidean distance between p and q.
func (p Point3) Dist(q Point3) float64 { return math.Sqrt(p.DistSq(q)) }

// IsFinite reports whether all coordinates are finite numbers.
func (p Point3) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0) &&
		!math.IsNaN(p.Z) && !math.IsInf(p.Z, 0)
}

// AABB is an axis-aligned bounding box.
type AABB struct {
	Min, Max Point3
}

// EmptyAABB returns a box that contains nothing; extending it with any point
// yields a box containing exactly that point.
func EmptyAABB() AABB {
	inf := math.Inf(1)
	return AABB{Min: Point3{inf, inf, inf}, Max: Point3{-inf, -inf, -inf}}
}

// Extend grows the box to include p.
func (b *AABB) Extend(p Point3) {
	b.Min.X = math.Min(b.Min.X, p.X)
	b.Min.Y = math.Min(b.Min.Y, p.Y)
	b.Min.Z = math.Min(b.Min.Z, p.Z)
	b.Max.X = math.Max(b.Max.X, p.X)
	b.Max.Y = math.Max(b.Max.Y, p.Y)
	b.Max.Z = math.Max(b.Max.Z, p.Z)
}

// Size returns the box extents along each axis.
func (b AABB) Size() Point3 { return b.Max.Sub(b.Min) }

// MaxDim returns the longest extent of the box (the paper's D, the dimension
// of the point cloud's bounding box, which fixes grid_size r = D / 2^⌊a/3⌋).
func (b AABB) MaxDim() float64 {
	s := b.Size()
	return math.Max(s.X, math.Max(s.Y, s.Z))
}

// Contains reports whether p lies inside the closed box.
func (b AABB) Contains(p Point3) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X &&
		p.Y >= b.Min.Y && p.Y <= b.Max.Y &&
		p.Z >= b.Min.Z && p.Z <= b.Max.Z
}

// IsValid reports whether the box has non-negative extent on every axis.
func (b AABB) IsValid() bool {
	return b.Min.X <= b.Max.X && b.Min.Y <= b.Max.Y && b.Min.Z <= b.Max.Z
}

// Cloud is a point cloud: N points, an optional dense feature matrix
// (N × FeatDim, row-major), and optional per-point integer labels.
//
// The zero Cloud is an empty cloud ready to be appended to.
type Cloud struct {
	Points  []Point3
	Feat    []float32 // len = len(Points) * FeatDim; nil if FeatDim == 0
	FeatDim int
	Labels  []int32 // nil or len = len(Points)
}

// ErrShape reports an inconsistency between a cloud's points, features and
// labels.
var ErrShape = errors.New("geom: inconsistent cloud shape")

// NewCloud allocates a cloud of n points with featDim features per point.
func NewCloud(n, featDim int) *Cloud {
	c := &Cloud{
		Points:  make([]Point3, n),
		FeatDim: featDim,
	}
	if featDim > 0 {
		c.Feat = make([]float32, n*featDim)
	}
	return c
}

// Len returns the number of points.
func (c *Cloud) Len() int { return len(c.Points) }

// Validate checks the internal shape invariants.
func (c *Cloud) Validate() error {
	n := len(c.Points)
	if c.FeatDim < 0 {
		return fmt.Errorf("%w: negative FeatDim %d", ErrShape, c.FeatDim)
	}
	if c.FeatDim == 0 && len(c.Feat) != 0 {
		return fmt.Errorf("%w: FeatDim=0 but %d feature values", ErrShape, len(c.Feat))
	}
	if c.FeatDim > 0 && len(c.Feat) != n*c.FeatDim {
		return fmt.Errorf("%w: want %d feature values, have %d", ErrShape, n*c.FeatDim, len(c.Feat))
	}
	if c.Labels != nil && len(c.Labels) != n {
		return fmt.Errorf("%w: %d labels for %d points", ErrShape, len(c.Labels), n)
	}
	return nil
}

// FeatureRow returns the feature vector of point i as a sub-slice of the
// cloud's feature storage (not a copy).
func (c *Cloud) FeatureRow(i int) []float32 {
	if c.FeatDim == 0 {
		return nil
	}
	return c.Feat[i*c.FeatDim : (i+1)*c.FeatDim]
}

// Bounds returns the axis-aligned bounding box of the cloud. An empty cloud
// returns the empty box.
func (c *Cloud) Bounds() AABB {
	b := EmptyAABB()
	for _, p := range c.Points {
		b.Extend(p)
	}
	return b
}

// Select returns a new cloud containing the points at the given indexes, in
// order, carrying features and labels along. Indexes may repeat.
func (c *Cloud) Select(idx []int) *Cloud {
	out := NewCloud(len(idx), c.FeatDim)
	if c.Labels != nil {
		out.Labels = make([]int32, len(idx))
	}
	for j, i := range idx {
		out.Points[j] = c.Points[i]
		if c.FeatDim > 0 {
			copy(out.FeatureRow(j), c.FeatureRow(i))
		}
		if c.Labels != nil {
			out.Labels[j] = c.Labels[i]
		}
	}
	return out
}

// Permute reorders the cloud in place so that new position j holds what was
// at perm[j]. perm must be a permutation of [0, N).
func (c *Cloud) Permute(perm []int) error {
	n := len(c.Points)
	if len(perm) != n {
		return fmt.Errorf("%w: permutation length %d for %d points", ErrShape, len(perm), n)
	}
	seen := make([]bool, n)
	for _, p := range perm {
		if p < 0 || p >= n || seen[p] {
			return fmt.Errorf("%w: invalid permutation", ErrShape)
		}
		seen[p] = true
	}
	pts := make([]Point3, n)
	for j, i := range perm {
		pts[j] = c.Points[i]
	}
	c.Points = pts
	if c.FeatDim > 0 {
		feat := make([]float32, len(c.Feat))
		for j, i := range perm {
			copy(feat[j*c.FeatDim:(j+1)*c.FeatDim], c.Feat[i*c.FeatDim:(i+1)*c.FeatDim])
		}
		c.Feat = feat
	}
	if c.Labels != nil {
		lab := make([]int32, n)
		for j, i := range perm {
			lab[j] = c.Labels[i]
		}
		c.Labels = lab
	}
	return nil
}

// Clone returns a deep copy of the cloud.
func (c *Cloud) Clone() *Cloud {
	out := &Cloud{FeatDim: c.FeatDim}
	out.Points = append([]Point3(nil), c.Points...)
	if c.Feat != nil {
		out.Feat = append([]float32(nil), c.Feat...)
	}
	if c.Labels != nil {
		out.Labels = append([]int32(nil), c.Labels...)
	}
	return out
}

// DropNonFinite removes points with NaN/Inf coordinates (LiDAR returns can
// contain invalid samples), keeping features and labels aligned. It returns
// the number of points removed.
func (c *Cloud) DropNonFinite() int {
	n := len(c.Points)
	keep := make([]int, 0, n)
	for i, p := range c.Points {
		if p.IsFinite() {
			keep = append(keep, i)
		}
	}
	if len(keep) == n {
		return 0
	}
	clean := c.Select(keep)
	*c = *clean
	return n - len(keep)
}
