// Package spatial is the exact spatial index the model's exact stages run
// over: an Index bound to a level's points answers farthest point sampling,
// k-nearest-neighbor and ball queries and the 3-NN interpolation plan, each
// index-identical to the O(nN) form it replaces —
//
//	FPS        sample.FPSIndexes(pts, n, 0)
//	ApproxFPS  sample.BucketFPS{Frac: q}.SampleInto(pts, n, nil)
//	KNN        neighbor.BruteKNN{}.Search
//	Ball       neighbor.BallQuery{R: r}.Search
//	ThreeNN    sample.ThreeNN{}.Plan
//
// — which stay where they are as the references the tests compare against
// and as the SOTA kernels the experiments time.
//
// The index is an O(N) build: a grid of cubic cells over the level's
// bounding box, the points copied in Morton order of their cells (a counting
// sort, so level order survives inside a cell) as three coordinate columns,
// the int32 permutation back to level indexes, and a cell-start table. FPS
// runs sample.BucketFPS's pruning kernel over that order, where consecutive
// runs are compact boxes; the searches walk the cells around a query in
// growing shells and stop when nothing outside the shells can beat what they
// hold.
//
// Identity rests on two things. Ties: the oracles scan in level order, so
// among equal distances the lowest level index wins; the searches here meet
// candidates in cell order and therefore compare (DistSq, level index)
// pairs, and a cell or shell is skipped only when its lower bound is
// strictly greater than the distance to beat. Rounding: the lower bounds are
// not derived from cell geometry but from the data — per axis and per slab
// of cells, the smallest and largest coordinate actually stored there — and
// from the fact that IEEE subtraction, squaring and addition of non-negative
// terms are monotone, so a bound computed with DistSq's own operations in
// DistSq's own order never exceeds the DistSq of any point it stands for.
// (Unfused operations, as Go emits them on amd64.) Distances themselves are
// the same geom.Point3.DistSq calls on the same values.
//
// Below scanBelow points a level is not worth a grid and the same entry
// points run the linear scan in place — the same comparisons in level
// order, which is what the oracles are; the choice is made from the level
// size alone. A level or a query with a non-finite coordinate takes the
// scan as well.
//
// Concurrency and determinism: an Index is owned by one goroutine (one
// replica's graph). KNN, Ball and ThreeNN fan their queries out with
// parallel.ForWorkers; the index is frozen before the fan-out, every worker
// writes only its own queries' output rows and its own scratch slot, so the
// result does not depend on the worker count. FPS is serial across picks.
package spatial

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/morton"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/sample"
)

const (
	// maxBits caps the grid at 32 cells per axis: a 32768-entry start table
	// is 128 KiB, the most a level of any size spends on it.
	maxBits = 5
	maxSide = 1 << maxBits

	// far is the oracles' "no candidate yet" distance: a point at DistSq ≥
	// far is never a neighbor, here as there.
	far = 1e300

	// maxBallCells is the largest cell box a ball query walks. The brute
	// ball query stops at its k-th hit in level order, so it gets cheaper as
	// the ball grows while a grid walk gets dearer; measured on W1 levels of
	// 8192 and 2048 points the two cross where the ball's box is five to
	// seven cells on a side (there the ball holds a tenth of the level).
	maxBallCells = 6 * 6 * 6
)

// scanBelow is the level size under which queries run the linear scan.
// Measured on this host over an SA module's three sites (N → N/4 picks, N/4
// queries of k=8, 3-NN from 4N targets): the scan is 1.5–2× faster at 64
// points and below, the two tie at 128 and 256, the grid is 2× faster at 512
// and 3–5× at 1024 and 2048. A variable only so tests can force small
// fixtures through the grid; see SetScanBelow.
var scanBelow = 512

// SetScanBelow replaces the scan cut-off and returns the previous value. It
// exists for tests, which run the golden fixtures (256-point clouds) through
// the grid with SetScanBelow(0); nothing on the serving path calls it, and
// it must not be called while any Index is in use.
func SetScanBelow(n int) int {
	old := scanBelow
	scanBelow = n
	return old
}

// Index is the spatial index of one level. The zero value is ready: Reset
// binds it to a level's points and the first query builds the grid, so the
// stage record that needed it carries the build. All storage is reused
// across Resets and grown only when a larger level arrives.
type Index struct {
	pts   []geom.Point3 // the level in its own order; not owned
	built bool
	scan  bool // level too small, or not finite: every query runs the linear scan

	min  geom.Point3
	inv  float64 // cells per unit length (cells are cubes); 0 when the level is a single site
	n    [3]int  // slabs in use along each axis, 1 on an axis of zero extent
	perm []int32 // position in cell order → level index
	// cols is the level's points in cell order, or in level order when scan
	// is set (only FPS reads them then).
	cols  sample.Coords
	start []int32 // cell c (Morton id) holds positions start[c]..start[c+1]
	// lo[a][c] is the smallest coordinate on axis a of any point in a cell
	// slab ≥ c, hi[a][c] the largest of any in a slab ≤ c. A point in slab c
	// lies in [lo[a][c], hi[a][c]], and a query below slab c is at least
	// lo[a][c] − v away from every point in slab c or beyond it.
	lo, hi [3][maxSide]float64
	// code[a][c] is slab c's share of a Morton cell id.
	code [3][maxSide]int32

	fps  sample.BucketFPS
	work []scratch // one per worker of the widest fan-out so far
}

// scratch is one worker's buffers: a top-k, and the per-slab squared gaps of
// the query being walked.
type scratch struct {
	idx []int
	d   []float64
	gap [3][maxSide]float64
}

// Reset binds the index to a level. It does no work; the grid is built by
// the first query. pts must not change until the next Reset.
func (ix *Index) Reset(pts []geom.Point3) {
	ix.pts = pts
	ix.built = false
}

// build lays the grid over the bound level, once per Reset.
func (ix *Index) build() {
	if ix.built {
		return
	}
	ix.built = true
	pts := ix.pts
	n := len(pts)
	ix.scan = n < scanBelow || n < 2
	var box geom.AABB
	if !ix.scan {
		// The builtin min and max carry a NaN through, as AABB.Extend does,
		// so one bad coordinate shows in the box.
		box = geom.AABB{Min: pts[0], Max: pts[0]}
		for _, p := range pts[1:] {
			box.Min = geom.Point3{X: min(box.Min.X, p.X), Y: min(box.Min.Y, p.Y), Z: min(box.Min.Z, p.Z)}
			box.Max = geom.Point3{X: max(box.Max.X, p.X), Y: max(box.Max.Y, p.Y), Z: max(box.Max.Z, p.Z)}
		}
		ix.scan = !box.Min.IsFinite() || !box.Max.IsFinite()
	}
	if ix.scan {
		// The searches scan pts itself; FPS runs over the columns, which
		// learn whether the level is finite in the same pass.
		ix.cols.SetPoints(pts)
		return
	}
	// Between N/2 and 4N cells. Scenes are surfaces, so most of them are
	// empty and an occupied one holds a handful of points; measured on W1
	// levels, a grid one step coarser or finer costs the 3-NN and the k=8
	// search 20–40 % more.
	bits := uint(1)
	for bits < maxBits && 1<<(3*bits) < n/2 {
		bits++
	}
	side := 1 << bits
	ix.min = box.Min
	ix.inv = 0
	if d := box.MaxDim(); d > 0 {
		ix.inv = float64(side) / d
	}
	mx, my, mz := ix.cell(box.Max, [3]int{side, side, side})
	ix.n = [3]int{mx + 1, my + 1, mz + 1}
	for c := 0; c < side; c++ {
		ix.code[0][c] = int32(morton.Encode3(uint32(c), 0, 0))
		ix.code[1][c] = int32(morton.Encode3(0, uint32(c), 0))
		ix.code[2][c] = int32(morton.Encode3(0, 0, uint32(c)))
	}
	ix.reserve(n, 1<<(3*bits))
	ix.fill()
}

// fill sorts the level into the grid build laid out: a counting sort by cell
// id, and the per-slab coordinate ranges the bounds are made of.
//
//edgepc:hotpath
func (ix *Index) fill() {
	pts, start := ix.pts, ix.start
	cells := len(start) - 1
	for i := range start {
		start[i] = 0
	}
	for a := 0; a < 3; a++ {
		for c := 0; c < ix.n[a]; c++ {
			ix.lo[a][c], ix.hi[a][c] = math.Inf(1), math.Inf(-1)
		}
	}
	// The id is computed twice rather than kept: a key array would be the
	// index's third-largest resident buffer.
	for _, p := range pts {
		x, y, z := ix.cell(p, ix.n)
		start[ix.id(x, y, z)+1]++
		ix.lo[0][x], ix.hi[0][x] = min(ix.lo[0][x], p.X), max(ix.hi[0][x], p.X)
		ix.lo[1][y], ix.hi[1][y] = min(ix.lo[1][y], p.Y), max(ix.hi[1][y], p.Y)
		ix.lo[2][z], ix.hi[2][z] = min(ix.lo[2][z], p.Z), max(ix.hi[2][z], p.Z)
	}
	for c := 0; c < cells; c++ {
		start[c+1] += start[c]
	}
	// start[c] now is where cell c begins; the scatter advances it to where
	// the cell ends, which is where cell c+1 begins, and the shift below
	// moves every entry back into place.
	for i, p := range pts {
		x, y, z := ix.cell(p, ix.n)
		c := ix.id(x, y, z)
		pos := start[c]
		start[c] = pos + 1
		ix.perm[pos] = int32(i)
		ix.cols.X[pos], ix.cols.Y[pos], ix.cols.Z[pos] = p.X, p.Y, p.Z
	}
	ix.cols.Finite = true // a level with a non-finite coordinate gets no grid
	copy(start[1:], start[:cells])
	start[0] = 0
	for a := 0; a < 3; a++ {
		for c := ix.n[a] - 2; c >= 0; c-- {
			ix.lo[a][c] = min(ix.lo[a][c], ix.lo[a][c+1])
		}
		for c := 1; c < ix.n[a]; c++ {
			ix.hi[a][c] = max(ix.hi[a][c], ix.hi[a][c-1])
		}
	}
}

// reserve sizes the storage for n points in cells cells: the build's only
// allocation, and only when a level outgrows what earlier frames left.
func (ix *Index) reserve(n, cells int) {
	if cap(ix.start) < cells+1 {
		ix.start = make([]int32, cells+1)
	}
	ix.start = ix.start[:cells+1]
	if cap(ix.perm) < n {
		ix.perm = make([]int32, n)
	}
	ix.perm = ix.perm[:n]
	ix.cols.Resize(n)
}

// slab maps a coordinate to its cell slab along one axis of n slabs. It is
// monotone in v, which is all the bounds in lo and hi rest on; coordinates
// outside the level's box (a query's) clamp to the border slabs.
func slab(v, min, inv float64, n int) int {
	c := (v - min) * inv
	if !(c > 0) {
		return 0
	}
	if c >= float64(n) {
		return n - 1
	}
	return int(c)
}

func (ix *Index) cell(p geom.Point3, n [3]int) (x, y, z int) {
	return slab(p.X, ix.min.X, ix.inv, n[0]), slab(p.Y, ix.min.Y, ix.inv, n[1]), slab(p.Z, ix.min.Z, ix.inv, n[2])
}

func (ix *Index) id(x, y, z int) int32 { return ix.code[0][x] | ix.code[1][y] | ix.code[2][z] }

// sq squares a one-sided distance, 0 when the query is on the near side.
func sq(t float64) float64 {
	if !(t > 0) {
		return 0
	}
	return t * t
}

// probe is one query's state while it walks the grid: either a top-k under
// (DistSq, level index), or the k lowest level indexes within r2.
type probe struct {
	q geom.Point3
	s *scratch
	// top-k: ascending, far / −1 where nothing was found yet.
	idx []int
	d   []float64
	// ball: found holds the lowest level indexes seen inside r2, ascending,
	// at most cap(found) of them.
	ball  bool
	r2    float64
	found []int
}

// limit is the distance a cell's or shell's lower bound has to exceed for it
// to be skipped.
func (p *probe) limit() float64 {
	if p.ball {
		return p.r2
	}
	return p.d[len(p.d)-1]
}

// walk visits the cells around p.q in growing shells — shell r is the cells
// r slabs away from the query's along some axis and no further along any —
// until nothing outside them can matter.
//
// Lower bounds are sums of per-axis squared gaps, added in DistSq's own
// order, (x + y) + z, or a part of that sum; see the package comment for why
// such a bound never exceeds the DistSq of a point it stands for.
//
//edgepc:hotpath
func (ix *Index) walk(p *probe) {
	q := p.q
	cx, cy, cz := ix.cell(q, ix.n)
	gx, gy, gz := &p.s.gap[0], &p.s.gap[1], &p.s.gap[2]
	gx[cx] = sq(max(ix.lo[0][cx]-q.X, q.X-ix.hi[0][cx]))
	gy[cy] = sq(max(ix.lo[1][cy]-q.Y, q.Y-ix.hi[1][cy]))
	gz[cz] = sq(max(ix.lo[2][cz]-q.Z, q.Z-ix.hi[2][cz]))
	start := ix.start
	codeX, codeY, codeZ := &ix.code[0], &ix.code[1], &ix.code[2]
	lim := p.limit()
	for r := 0; ; r++ {
		x0, x1 := max(cx-r, 0), min(cx+r, ix.n[0]-1)
		y0, y1 := max(cy-r, 0), min(cy+r, ix.n[1]-1)
		z0, z1 := max(cz-r, 0), min(cz+r, ix.n[2]-1)
		for z := z0; z <= z1; z++ {
			bz := gz[z]
			if bz > lim {
				continue
			}
			zEdge := z == cz-r || z == cz+r
			for y := y0; y <= y1; y++ {
				if gy[y]+bz > lim {
					continue
				}
				// Rows on the shell's faces are new end to end; of the rows
				// inside, only the two end cells are.
				step := 1
				if !zEdge && y != cy-r && y != cy+r {
					step = 2 * r
				}
				row := codeY[y] | codeZ[z]
				for x := cx - r; x <= x1; x += step {
					if x < x0 {
						continue
					}
					c := codeX[x] | row
					s, e := start[c], start[c+1]
					if s == e || (gx[x]+gy[y])+bz > lim {
						continue
					}
					lim = ix.offer(p, s, e)
				}
			}
		}
		// Reach the next shell's slabs. What lies beyond the cube visited so
		// far lies in or beyond one of them, so the least of their gaps is a
		// lower bound for everything not yet seen.
		out, grew := math.Inf(1), false
		if c := cx - r - 1; c >= 0 {
			gx[c], grew = sq(q.X-ix.hi[0][c]), true
			out = min(out, gx[c])
		}
		if c := cx + r + 1; c < ix.n[0] {
			gx[c], grew = sq(ix.lo[0][c]-q.X), true
			out = min(out, gx[c])
		}
		if c := cy - r - 1; c >= 0 {
			gy[c], grew = sq(q.Y-ix.hi[1][c]), true
			out = min(out, gy[c])
		}
		if c := cy + r + 1; c < ix.n[1] {
			gy[c], grew = sq(ix.lo[1][c]-q.Y), true
			out = min(out, gy[c])
		}
		if c := cz - r - 1; c >= 0 {
			gz[c], grew = sq(q.Z-ix.hi[2][c]), true
			out = min(out, gz[c])
		}
		if c := cz + r + 1; c < ix.n[2] {
			gz[c], grew = sq(ix.lo[2][c]-q.Z), true
			out = min(out, gz[c])
		}
		if !grew || out > lim {
			return
		}
	}
}

// offer shows the points at positions s..e of the cell order, one cell's, to
// p, and returns p's limit afterwards.
//
//edgepc:hotpath
func (ix *Index) offer(p *probe, s, e int32) float64 {
	if p.ball {
		k := cap(p.found)
		for pos := s; pos < e; pos++ {
			id := int(ix.perm[pos])
			if len(p.found) == k && id > p.found[k-1] {
				break // a cell holds its points in level order
			}
			if p.q.DistSq(ix.cols.At(int(pos))) <= p.r2 {
				p.found = insertID(p.found, id)
			}
		}
		return p.r2
	}
	idx, d := p.idx, p.d
	last := len(d) - 1
	for pos := s; pos < e; pos++ {
		if dist := p.q.DistSq(ix.cols.At(int(pos))); !(dist > d[last]) {
			insert(idx, d, int(ix.perm[pos]), dist)
		}
	}
	return d[last]
}

// insert offers candidate (id, dist) to a top-k kept ascending under
// (dist, id). Fed candidates in level order it is the oracles' topK /
// nearestK; the explicit index comparison makes it order-independent.
func insert(idx []int, d []float64, id int, dist float64) {
	k := len(idx)
	//edgepc:lint-ignore floateq the order is lexicographic on (DistSq, index): equal means bit-equal, as in the scan it reproduces
	if dist > d[k-1] || (dist == d[k-1] && id > idx[k-1]) {
		return
	}
	j := k - 1
	//edgepc:lint-ignore floateq same lexicographic order
	for j > 0 && (d[j-1] > dist || (d[j-1] == dist && idx[j-1] > id)) {
		d[j], idx[j] = d[j-1], idx[j-1]
		j--
	}
	d[j], idx[j] = dist, id
}

// insertID adds id to found, kept ascending and at most cap(found) long; the
// largest falls off a full slice.
func insertID(found []int, id int) []int {
	if len(found) < cap(found) {
		found = found[:len(found)+1]
	} else if id > found[len(found)-1] {
		return found
	}
	j := len(found) - 1
	for j > 0 && found[j-1] > id {
		found[j] = found[j-1]
		j--
	}
	found[j] = id
	return found
}

// nearest fills idx and d (same length, at most the level's) with the nearest
// points to q under (DistSq, level index), ascending.
//
//edgepc:hotpath
func (ix *Index) nearest(q geom.Point3, s *scratch, idx []int, d []float64) {
	for i := range d {
		d[i], idx[i] = far, -1
	}
	if ix.scan || !q.IsFinite() {
		last := len(d) - 1
		for i, p := range ix.pts {
			if dist := q.DistSq(p); !(dist > d[last]) {
				insert(idx, d, i, dist)
			}
		}
		return
	}
	ix.walk(&probe{q: q, s: s, idx: idx, d: d})
}

// inBall returns the lowest level indexes within r2 of q, ascending, at most
// k of them; the nearest point when the ball is empty. grid is whether a
// ball of this radius is small enough to walk the grid for. The result
// aliases s.idx.
//
//edgepc:hotpath
func (ix *Index) inBall(q geom.Point3, r2 float64, grid bool, s *scratch, k int) []int {
	found := s.idx[:0:k]
	if !grid || !q.IsFinite() {
		// The brute query's own loop: it stops at the k-th hit in level
		// order, which for a large ball is a handful of points in.
		nearest, nearestD := 0, far
		for i, p := range ix.pts {
			dist := q.DistSq(p)
			if dist < nearestD {
				nearest, nearestD = i, dist
			}
			if dist <= r2 {
				found = found[:len(found)+1]
				found[len(found)-1] = i
				if len(found) == k {
					return found
				}
			}
		}
		if len(found) == 0 {
			found = found[:1]
			found[0] = nearest
		}
		return found
	}
	p := probe{q: q, s: s, ball: true, r2: r2, found: found}
	ix.walk(&p)
	if found = p.found; len(found) == 0 {
		found = found[:1]
		ix.nearest(q, s, found, s.d[:1])
		if found[0] < 0 {
			found[0] = 0 // nothing nearer than far: the brute query's nearest stays at its initial 0
		}
	}
	return found
}

// grow makes sure there are scratch slots for workers workers, each with
// room for a top-k of k: the searches' only allocation besides their result,
// and only when a fan-out is wider or a k larger than any before.
func (ix *Index) grow(workers, k int) {
	if cap(ix.work) < workers {
		w := make([]scratch, workers)
		copy(w, ix.work[:cap(ix.work)])
		ix.work = w
	}
	ix.work = ix.work[:cap(ix.work)]
	for i := range ix.work[:workers] {
		if s := &ix.work[i]; cap(s.idx) < k {
			s.idx = make([]int, k)
			s.d = make([]float64, k)
		}
	}
}

func (ix *Index) check(k int) error {
	if len(ix.pts) == 0 {
		return neighbor.ErrNoPoints
	}
	if k < 1 {
		return fmt.Errorf("%w: k=%d", neighbor.ErrBadK, k)
	}
	return nil
}

// writePadded copies found into dst and fills the rest with its first entry,
// the padding convention of neighbor.Searcher.
func writePadded(dst, found []int) {
	for i := copy(dst, found); i < len(dst); i++ {
		dst[i] = found[0]
	}
}

// FPS returns n farthest-point samples of the level starting from index 0,
// as sample.FPSIndexes(pts, n, 0) does, reusing out like append.
//
//edgepc:hotpath
func (ix *Index) FPS(n int, out []int) ([]int, error) {
	ix.build()
	if ix.scan {
		// One bucket holding the whole level: the kernel's refresh is then
		// exact FPS's two linear passes per pick.
		ix.fps.BucketSize = len(ix.pts)
		return ix.fps.ExactInto(ix.cols, nil, n, out)
	}
	ix.fps.BucketSize = 0
	return ix.fps.ExactInto(ix.cols, ix.perm, n, out)
}

// ApproxFPS returns the picks sample.BucketFPS{Frac: quality}.SampleInto(pts,
// n, out) returns — stride seeds over the level's order, then
// farthest-point refinements — computed over the cell order, whose compact
// buckets prune far better than the level's own order. out is reused like
// append.
//
//edgepc:hotpath
func (ix *Index) ApproxFPS(quality float64, n int, out []int) ([]int, error) {
	ix.build()
	ix.fps.Frac, ix.fps.BucketSize = quality, 0
	if ix.scan {
		return ix.fps.OrderedInto(ix.cols, nil, n, out)
	}
	return ix.fps.OrderedInto(ix.cols, ix.perm, n, out)
}

// KNN returns, for every query, the k nearest level points under (DistSq,
// level index), ascending, flat and padded as neighbor.BruteKNN{}.Search
// returns them. The result is the call's one allocation of its own.
func (ix *Index) KNN(queries []geom.Point3, k int) ([]int, error) {
	if err := ix.check(k); err != nil {
		return nil, err
	}
	ix.build()
	kk := min(k, len(ix.pts))
	out := make([]int, len(queries)*k)
	ix.grow(parallel.Workers(len(queries)), kk)
	parallel.ForWorkers(len(queries), func(w, lo, hi int) {
		s := &ix.work[w]
		idx, d := s.idx[:kk], s.d[:kk]
		for q := lo; q < hi; q++ {
			ix.nearest(queries[q], s, idx, d)
			writePadded(out[q*k:(q+1)*k], idx)
		}
	})
	return out, nil
}

// Ball returns, for every query, the k lowest level indexes within r of it
// (the nearest point when there is none), flat and padded as
// neighbor.BallQuery{R: r}.Search returns them.
func (ix *Index) Ball(queries []geom.Point3, r float64, k int) ([]int, error) {
	if err := ix.check(k); err != nil {
		return nil, err
	}
	if r <= 0 {
		return nil, fmt.Errorf("neighbor: ball query needs positive radius, got %v", r)
	}
	ix.build()
	grid := !ix.scan && ix.ballCells(r) <= maxBallCells
	r2 := r * r
	out := make([]int, len(queries)*k)
	ix.grow(parallel.Workers(len(queries)), k)
	parallel.ForWorkers(len(queries), func(w, lo, hi int) {
		for q := lo; q < hi; q++ {
			writePadded(out[q*k:(q+1)*k], ix.inBall(queries[q], r2, grid, &ix.work[w], k))
		}
	})
	return out, nil
}

// ballCells estimates how many cells the box around a ball of radius r
// covers.
func (ix *Index) ballCells(r float64) float64 {
	cells := 1.0
	for _, n := range ix.n {
		cells *= min(float64(2*r*ix.inv)+1, float64(n))
	}
	return cells
}

// ThreeNN returns the inverse-distance interpolation plan from the level
// (the sources) onto targets, with the indexes and weights
// sample.ThreeNN{}.Plan(targets, pts) computes.
func (ix *Index) ThreeNN(targets []geom.Point3) (*sample.InterpPlan, error) {
	if len(ix.pts) == 0 {
		return nil, sample.ErrNoSources
	}
	ix.build()
	k := min(3, len(ix.pts))
	plan := &sample.InterpPlan{
		K:       k,
		Indexes: make([]int, len(targets)*k),
		Weights: make([]float64, len(targets)*k),
	}
	ix.grow(parallel.Workers(len(targets)), k)
	parallel.ForWorkers(len(targets), func(w, lo, hi int) {
		s := &ix.work[w]
		idx, d := s.idx[:k], s.d[:k]
		for t := lo; t < hi; t++ {
			ix.nearest(targets[t], s, idx, d)
			plan.FillWeights(t, idx, d)
		}
	})
	return plan, nil
}
