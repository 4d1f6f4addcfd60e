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

// Extend grows the box to include p. Every bound is math.Min / math.Max of
// the old bound and the coordinate, bit for bit: −0 < +0, a NaN wins, and a
// −Inf (+Inf) minimum (maximum) wins over a NaN.
func (b *AABB) Extend(p Point3) {
	b.extend(p, p)
}

// extend lowers b.Min to lo and raises b.Max to hi, axis by axis, with the
// builtin min and max: a third of math.Min's cost, and the same bits unless
// a NaN meets them. The builtins then keep the NaN's payload and sign where
// math.Min returns its own NaN, and min(−Inf, NaN) is NaN where math.Min
// takes the infinity; every NaN result is computed again through math.
func (b *AABB) extend(lo, hi Point3) {
	e := AABB{
		Min: Point3{min(b.Min.X, lo.X), min(b.Min.Y, lo.Y), min(b.Min.Z, lo.Z)},
		Max: Point3{max(b.Max.X, hi.X), max(b.Max.Y, hi.Y), max(b.Max.Z, hi.Z)},
	}
	if e.hasNaN() {
		e.Min = Point3{math.Min(b.Min.X, lo.X), math.Min(b.Min.Y, lo.Y), math.Min(b.Min.Z, lo.Z)}
		e.Max = Point3{math.Max(b.Max.X, hi.X), math.Max(b.Max.Y, hi.Y), math.Max(b.Max.Z, hi.Z)}
	}
	*b = e
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
func (c *Cloud) Bounds() AABB { return BoundsOf(c.Points) }

// BoundsOf returns the box Extend makes of pts from the empty box, bit for
// bit. The even and the odd points fold into two boxes in registers, which
// then merge: a bound is a function of the set of coordinates, and the two
// folds halve the chain of dependent min and max operations. A NaN
// coordinate takes the Extend fold instead.
func BoundsOf(pts []Point3) AABB {
	a, b := EmptyAABB(), EmptyAABB()
	for i := 0; i+1 < len(pts); i += 2 {
		p, q := pts[i], pts[i+1]
		a.Min.X, a.Min.Y, a.Min.Z = min(a.Min.X, p.X), min(a.Min.Y, p.Y), min(a.Min.Z, p.Z)
		a.Max.X, a.Max.Y, a.Max.Z = max(a.Max.X, p.X), max(a.Max.Y, p.Y), max(a.Max.Z, p.Z)
		b.Min.X, b.Min.Y, b.Min.Z = min(b.Min.X, q.X), min(b.Min.Y, q.Y), min(b.Min.Z, q.Z)
		b.Max.X, b.Max.Y, b.Max.Z = max(b.Max.X, q.X), max(b.Max.Y, q.Y), max(b.Max.Z, q.Z)
	}
	if len(pts)%2 == 1 {
		a.Extend(pts[len(pts)-1])
	}
	a.extend(b.Min, b.Max)
	if a.hasNaN() {
		// The builtins propagated a NaN, not necessarily math.Min's.
		a = EmptyAABB()
		for _, p := range pts {
			a.Extend(p)
		}
	}
	return a
}

// MaxSpanSq is the bound a cloud's squared bounding-box diagonal must stay
// under. The coordinate searches start their top-k lists empty and take any
// distance into an empty slot, +Inf included (see InsertTopK); DGCNN's
// feature-space kNN starts at a finite 1e300 and never takes a distance at
// or beyond it. Below the bound no two points of the cloud are that far
// apart, and every distance is finite. (Finite coordinates overflow a
// squared distance to +Inf from about 1e154 apart.)
const MaxSpanSq = 1e300

// InsertTopK offers candidate (id, dist) to a top-k list kept ascending
// under (distance, index), the lower index first among equal distances, in
// which an empty slot holds (+Inf, −1): the −1 compares, as an unsigned
// number, above every index, so a candidate at +Inf still takes an empty
// slot. The order is lexicographic, so a list fed any candidate order holds
// what a scan in index order keeps. A NaN distance is below no slot and is
// never taken. A candidate that does not go before the last slot returns at
// once; one that does walks up, shifting down what it goes before. (Too
// large to inline; the forms that inline ran the index's scan-level 3-NN
// about 10 % slower.)
func InsertTopK(idx []int, d []float64, id int, dist float64) {
	j := len(idx) - 1
	//edgepc:lint-ignore floateq the order is lexicographic on (DistSq, index): equal means bit-equal, as in the scan it reproduces
	if !(d[j] > dist || d[j] == dist && uint(idx[j]) > uint(id)) {
		return
	}
	//edgepc:lint-ignore floateq same lexicographic order
	for ; j > 0 && (d[j-1] > dist || d[j-1] == dist && uint(idx[j-1]) > uint(id)); j-- {
		d[j], idx[j] = d[j-1], idx[j-1]
	}
	d[j], idx[j] = dist, id
}

// ClearTopK empties a top-k list for InsertTopK: every slot (+Inf, −1).
func ClearTopK(idx []int, d []float64) {
	for i := range d {
		d[i], idx[i] = math.Inf(1), -1
	}
}

// CheckSpan returns the bounding box of pts and an error when the cloud is
// outside what the searches compare: a non-finite coordinate, or a squared
// diagonal box.Max.DistSq(box.Min) not below MaxSpanSq. DistSq is monotone
// in each coordinate difference, so no pair of points is farther apart
// than the diagonal.
func CheckSpan(pts []Point3) (AABB, error) {
	box := BoundsOf(pts)
	if len(pts) == 0 {
		return box, nil
	}
	if !box.Min.IsFinite() || !box.Max.IsFinite() {
		for i, p := range pts {
			if !p.IsFinite() {
				return box, fmt.Errorf("geom: point %d has a non-finite coordinate", i)
			}
		}
	}
	if d := box.Max.DistSq(box.Min); !(d < MaxSpanSq) {
		return box, fmt.Errorf("geom: squared bounding-box diagonal %g is not below %g", d, float64(MaxSpanSq))
	}
	return box, nil
}

func (b AABB) hasNaN() bool {
	return math.IsNaN(b.Min.X) || math.IsNaN(b.Min.Y) || math.IsNaN(b.Min.Z) ||
		math.IsNaN(b.Max.X) || math.IsNaN(b.Max.Y) || math.IsNaN(b.Max.Z)
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
