// Package sample provides point-cloud down-sampling and up-sampling
// (interpolation) algorithms: the state-of-the-art baselines used by
// PointNet++-style networks.
//
// The paper's primary target is farthest point sampling (FPS): it yields an
// excellent coverage of the input cloud but costs O(nN) with a serial
// dependency between consecutive samples, making it the dominant stage on
// edge devices. The EdgePC approximation (uniform index sampling over
// Morton-structurized data) lives in package core; the samplers here are the
// baselines it is compared against.
package sample

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/geom"
)

// Common sampler errors.
var (
	ErrEmptyCloud = errors.New("sample: empty cloud")
	ErrBadCount   = errors.New("sample: invalid sample count")
)

// Sampler selects n representative points from a cloud and returns their
// indexes into the cloud.
type Sampler interface {
	// Sample returns the indexes of n selected points. Implementations
	// must return an error if n < 1 or n > c.Len().
	Sample(c *geom.Cloud, n int) ([]int, error)
	// Name identifies the algorithm in reports and benchmarks.
	Name() string
}

func checkArgs(c *geom.Cloud, n int) error { return checkCount(c.Len(), n) }

// checkCount validates a request for n samples of total points.
func checkCount(total, n int) error {
	if total == 0 {
		return ErrEmptyCloud
	}
	if n < 1 || n > total {
		return fmt.Errorf("%w: n=%d with %d points", ErrBadCount, n, total)
	}
	return nil
}

// FPS is farthest point sampling (Eldar et al. 1997), the SOTA down-sampler
// in PointNet++. Starting from StartIndex it repeatedly selects the point
// whose distance to the already-sampled set is maximal, updating a running
// minimum-distance array after every pick — O(nN) total, inherently serial
// across picks (§5.1.1).
type FPS struct {
	// StartIndex is the first sampled point. The paper's Fig. 8(a) example
	// starts from P0; production implementations often pick it randomly.
	StartIndex int
}

// Name implements Sampler.
func (FPS) Name() string { return "fps" }

// Sample implements Sampler.
func (f FPS) Sample(c *geom.Cloud, n int) ([]int, error) {
	if err := checkArgs(c, n); err != nil {
		return nil, err
	}
	start := f.StartIndex
	if start < 0 || start >= c.Len() {
		start = 0
	}
	return fpsFrom(c.Points, n, start), nil
}

// FPSIndexes runs farthest point sampling directly over a point slice,
// starting from index start. It is the kernel behind FPS.Sample, exported for
// callers (the CNN modules) that hold bare point slices rather than clouds.
func FPSIndexes(pts []geom.Point3, n, start int) ([]int, error) {
	if err := checkCount(len(pts), n); err != nil {
		return nil, err
	}
	if start < 0 || start >= len(pts) {
		start = 0
	}
	return fpsFrom(pts, n, start), nil
}

func fpsFrom(pts []geom.Point3, n, start int) []int {
	N := len(pts)
	out := make([]int, 0, n)
	// dist[i] holds the squared distance from point i to the sampled set —
	// the paper's array D, initialized to +inf (here: updated on first pick).
	dist := make([]float64, N)
	cur := start
	out = append(out, cur)
	for i := range dist {
		dist[i] = pts[i].DistSq(pts[cur])
	}
	for len(out) < n {
		best, bestD := -1, -1.0
		for i, d := range dist {
			if d > bestD {
				best, bestD = i, d
			}
		}
		cur = best
		out = append(out, cur)
		// Update step: O(N) per pick.
		p := pts[cur]
		for i := range dist {
			if d := pts[i].DistSq(p); d < dist[i] {
				dist[i] = d
			}
		}
	}
	return out
}

// Random samples n points uniformly at random without replacement.
type Random struct {
	Seed int64
}

// Name implements Sampler.
func (Random) Name() string { return "random" }

// Sample implements Sampler.
func (r Random) Sample(c *geom.Cloud, n int) ([]int, error) {
	if err := checkArgs(c, n); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.Seed))
	// Partial Fisher–Yates over a sparse index overlay: only the first n
	// swaps of a full shuffle are performed, and only displaced entries are
	// materialized — O(n) time and space where rng.Perm(N)[:n] would pay for
	// the full N-element permutation on every call.
	N := c.Len()
	out := make([]int, n)
	moved := make(map[int]int, n)
	get := func(k int) int {
		if v, ok := moved[k]; ok {
			return v
		}
		return k
	}
	for i := 0; i < n; i++ {
		j := i + rng.Intn(N-i)
		out[i] = get(j)
		moved[j] = get(i)
	}
	return out, nil
}

// Uniform samples points at evenly spaced positions of the cloud's *current*
// order. On raw (unordered) clouds this is the strawman of Fig. 4b — cheap
// but spatially uneven; on Morton-structurized clouds it is the core of the
// EdgePC sampler.
type Uniform struct{}

// Name implements Sampler.
func (Uniform) Name() string { return "uniform" }

// Sample implements Sampler.
func (Uniform) Sample(c *geom.Cloud, n int) ([]int, error) {
	if err := checkArgs(c, n); err != nil {
		return nil, err
	}
	return UniformIndexes(c.Len(), n), nil
}

// UniformIndexes returns n evenly spaced positions in [0, total). Both
// endpoints are covered (position 0 and total-1 are always selected for
// n ≥ 2), matching the paper's Fig. 8(b) worked example, where sampling 3 of
// 5 points picks positions {0, 2, 4}.
func UniformIndexes(total, n int) []int {
	return UniformIndexesInto(nil, total, n)
}

// UniformIndexesInto is UniformIndexes writing into out, which it reuses
// like append.
func UniformIndexesInto(out []int, total, n int) []int {
	if cap(out) < n {
		out = make([]int, n)
	}
	out = out[:n]
	writeUniformIndexes(out, total)
	return out
}

// writeUniformIndexes fills out with len(out) evenly spaced positions in
// [0, total) — the allocation-free core of UniformIndexes, usable from
// hot-path kernels with a pre-sized destination.
func writeUniformIndexes(out []int, total int) {
	n := len(out)
	if n == 0 {
		return
	}
	if n == 1 {
		out[0] = 0
		return
	}
	num, den := total-1, n-1
	for k := 0; k < n; k++ {
		// round(k * (total-1) / (n-1)) in integer arithmetic.
		out[k] = (k*num + den/2) / den
	}
}

// Grid performs voxel-grid down-sampling: the cloud is divided into cubic
// voxels of side Size and the point nearest to each occupied voxel's centroid
// is retained. A common non-learned baseline (e.g. in PCL); included for the
// sampler-quality comparison. The number of returned points is the number of
// occupied voxels, truncated or topped up to n.
type Grid struct {
	Size float64
}

// Name implements Sampler.
func (Grid) Name() string { return "grid" }

// Sample implements Sampler.
func (g Grid) Sample(c *geom.Cloud, n int) ([]int, error) {
	if err := checkArgs(c, n); err != nil {
		return nil, err
	}
	size := g.Size
	if size <= 0 {
		// Heuristic: aim for ~n occupied voxels.
		b := c.Bounds()
		size = b.MaxDim() / float64(max(1, cubeRootCeil(n)))
	}
	type cell struct {
		sum   geom.Point3
		count int
		first int
	}
	cells := make(map[[3]int64]*cell, n)
	b := c.Bounds()
	for i, p := range c.Points {
		key := [3]int64{
			int64((p.X - b.Min.X) / size),
			int64((p.Y - b.Min.Y) / size),
			int64((p.Z - b.Min.Z) / size),
		}
		cl := cells[key]
		if cl == nil {
			cl = &cell{first: i}
			cells[key] = cl
		}
		cl.sum = cl.sum.Add(p)
		cl.count++
	}
	out := make([]int, 0, len(cells))
	for _, cl := range cells {
		out = append(out, cl.first)
	}
	// Deterministic order, then fit to n.
	sort.Ints(out)
	if len(out) > n {
		pick := UniformIndexes(len(out), n)
		sel := make([]int, n)
		for j, p := range pick {
			sel[j] = out[p]
		}
		return sel, nil
	}
	// Fewer occupied voxels than n: top up with the lowest indexes not
	// already selected. out is sorted, so a single merge-style scan finds
	// the gaps without re-checking membership per candidate.
	picked := len(out)
	next := 0 // next position in the sorted voxel picks to skip over
	for i := 0; len(out) < n && i < c.Len(); i++ {
		if next < picked && out[next] == i {
			next++
			continue
		}
		out = append(out, i)
	}
	sort.Ints(out)
	return out[:n], nil
}

func cubeRootCeil(n int) int {
	r := 1
	for r*r*r < n {
		r++
	}
	return r
}
