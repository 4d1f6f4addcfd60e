package spatial

import (
	"math"

	"repro/internal/geom"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// ThreeNNInto runs as a join over the level's own grid rather than a walk
// per target. The targets are binned into the grid's cells (a counting sort,
// so target order survives inside a cell); for each occupied target cell the
// sources of the 3×3×3 block of cells around it are gathered once, as
// coordinate columns with their level indexes, and every target in the cell
// computes its distance to each of them (best3, branch-free) and takes the
// three smallest under (DistSq, level index) from the few that are not
// above the third. That answer is the walk's whenever the third distance is
// strictly below the block's fence bound: the smallest squared gap from the
// target to the slabs just outside the block, built from lo and hi as the
// walk's bounds are, so no source outside can beat or tie it. A target whose
// answer fails that test, a target in a cell whose block holds fewer than
// three sources, and a target with a non-finite coordinate take the walk.
//
// A level that takes the scan (below scanBelow points) is one block: its
// columns are already in level order, so the kernel runs over them in place
// and positions are level indexes.

// best3Vec is the answer of tensor's one CPUID probe: whether best3 runs
// the AVX2 kernel or the Go loop it is tested against. A variable only so
// tests can run both on one host.
var best3Vec = tensor.HasAVX2()

// best3 sets dist[i] to q.DistSq of candidate i of the columns x, y, z (n =
// len(x) ≥ 1 of them) and returns the third smallest of those distances,
// counted with multiplicity (+Inf under three candidates), with the
// positions whose distance is ≤ it written to hit, ascending; hits is their
// count, at least three when third is finite. dist holds at least n entries
// and hit n rounded up to a multiple of 4.
//
//edgepc:hotpath
func best3(q *geom.Point3, x, y, z, dist []float64, hit []int32) (third float64, hits int) {
	n := len(x)
	if best3Vec {
		_, _, _, _ = y[n-1], z[n-1], dist[n-1], hit[(n+3)&^3-1]
		return best3AVX2(q, &x[0], &y[0], &z[0], n, &dist[0], &hit[0])
	}
	return best3Go(*q, x, y[:n], z[:n], dist[:n], hit)
}

// best3Go is best3's loop: the non-AVX2 path and best3AVX2's oracle.
func best3Go(q geom.Point3, x, y, z, dist []float64, hit []int32) (third float64, hits int) {
	d1, d2, d3 := math.Inf(1), math.Inf(1), math.Inf(1)
	for i := range x {
		d := q.DistSq(geom.Point3{X: x[i], Y: y[i], Z: z[i]})
		dist[i] = d
		switch {
		case d < d1:
			d1, d2, d3 = d, d1, d2
		case d < d2:
			d2, d3 = d, d2
		case d < d3:
			d3 = d
		}
	}
	for i, d := range dist {
		if d <= d3 {
			hit[hits] = int32(i)
			hits++
		}
	}
	return d3, hits
}

// pick fills idx and d (three long) with the three of the hits smallest
// under (DistSq, level index), ascending. id maps a position to its level
// index; nil means positions are level indexes.
//
//edgepc:hotpath
func pick(idx []int, d []float64, dist []float64, hit []int32, id []int32) {
	geom.ClearTopK(idx, d)
	for _, h := range hit {
		l := int(h)
		if id != nil {
			l = int(id[h])
		}
		geom.InsertTopK(idx, d, l, dist[h])
	}
}

// block is the join's candidates: the sources of the 3×3×3 block of cells
// around a target cell as coordinate columns with their level indexes, and
// the kernel's distances and hits over them.
type block struct {
	x, y, z, dist []float64
	id, hit       []int32
}

// reserve makes room for n candidates: the join's only allocation besides
// the binning's, and only when a block outgrows every earlier one. The
// contents are not kept.
func (b *block) reserve(n int) {
	if cap(b.dist) >= n && cap(b.hit) >= (n+3)&^3 {
		return
	}
	n += n / 4
	buf := make([]float64, 4*n)
	b.x, b.y, b.z, b.dist = buf[:n:n], buf[n:2*n:2*n], buf[2*n:3*n:3*n], buf[3*n:]
	b.id = make([]int32, n)
	b.hit = make([]int32, (n+3)&^3)
}

// fence is what bounds a block from outside: per axis, the largest
// coordinate of any source in a slab below the block (−Inf when there is
// none) and the smallest of any in a slab above it (+Inf).
type fence [3][2]float64

// bound is a lower bound on q.DistSq of every source outside the block: a
// one-axis squared gap, as the walk's shell bounds are.
func (f *fence) bound(q geom.Point3) float64 {
	return min(sq(q.X-f[0][0]), sq(f[0][1]-q.X),
		sq(q.Y-f[1][0]), sq(f[1][1]-q.Y),
		sq(q.Z-f[2][0]), sq(f[2][1]-q.Z))
}

// gather copies the sources of the block around q's cell into b and returns
// how many there are and the block's fence.
func (ix *Index) gather(b *block, q geom.Point3) (n int, f fence) {
	var c [3]int
	c[0], c[1], c[2] = ix.cell(q, ix.n)
	var lo, hi [3]int
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = max(c[a]-1, 0), min(c[a]+1, ix.n[a]-1)
		f[a] = [2]float64{math.Inf(-1), math.Inf(1)}
		if s := c[a] - 2; s >= 0 {
			f[a][0] = ix.hi[a][s]
		}
		if s := c[a] + 2; s < ix.n[a] {
			f[a][1] = ix.lo[a][s]
		}
	}
	// The cells' position ranges first, to size the block; a cell holds
	// two or three sources, so the copy is a loop rather than copy calls.
	var runs [27][2]int32
	m := 0
	for z := lo[2]; z <= hi[2]; z++ {
		for y := lo[1]; y <= hi[1]; y++ {
			row := ix.code[1][y] | ix.code[2][z]
			for x := lo[0]; x <= hi[0]; x++ {
				id := ix.code[0][x] | row
				s, e := ix.start[id], ix.start[id+1]
				runs[m] = [2]int32{s, e}
				m++
				n += int(e - s)
			}
		}
	}
	b.reserve(n)
	X, Y, Z, perm := ix.cols.X, ix.cols.Y, ix.cols.Z, ix.perm
	bx, by, bz, bid := b.x[:n], b.y[:n], b.z[:n], b.id[:n]
	at := 0
	for _, r := range runs[:m] {
		for p := r[0]; p < r[1]; p++ {
			bx[at], by[at], bz[at], bid[at] = X[p], Y[p], Z[p], perm[p]
			at++
		}
	}
	return n, f
}

// reserveTargets sizes the binning's storage for n targets: its only
// allocation, and only when more targets arrive than any call saw before.
func (ix *Index) reserveTargets(n int) {
	if cap(ix.tord) < n {
		ix.tord = make([]int32, n)
	}
	ix.tord = ix.tord[:n]
	if cells := len(ix.start); cap(ix.tcnt) < cells {
		ix.tcnt = make([]int32, cells)
	}
	ix.tcnt = ix.tcnt[:len(ix.start)]
}

// bin sorts the targets into the grid: tord lists them by cell id, in
// target order inside a cell, and tcnt[c] is where cell c's run ends. A
// target outside the level's box lands in a border cell, as the walk starts
// it there. The id is computed twice rather than kept, as fill does.
//
//edgepc:hotpath
func (ix *Index) bin(targets []geom.Point3) {
	ix.reserveTargets(len(targets))
	ord, cnt := ix.tord, ix.tcnt
	for i := range cnt {
		cnt[i] = 0
	}
	for _, q := range targets {
		x, y, z := ix.cell(q, ix.n)
		cnt[ix.id(x, y, z)+1]++
	}
	for c := 1; c < len(cnt); c++ {
		cnt[c] += cnt[c-1]
	}
	for t, q := range targets {
		x, y, z := ix.cell(q, ix.n)
		c := ix.id(x, y, z)
		ord[cnt[c]] = int32(t)
		cnt[c]++
	}
}

// threeNNRow writes target t's row from the per-target search: the scan on
// a level that takes it, the shell walk over a grid.
//
//edgepc:hotpath
func (ix *Index) threeNNRow(plan *sample.InterpPlan, s *scratch, t int, q geom.Point3) {
	idx, d := s.idx[:plan.K], s.d[:plan.K]
	ix.nearest(q, s, idx, d)
	plan.FillWeights(t, idx, d)
}

// scanRows writes every row over a finite level of at least three points
// that takes the scan: the whole level is the block.
//
//edgepc:hotpath
func (ix *Index) scanRows(plan *sample.InterpPlan, s *scratch, targets []geom.Point3) {
	cols, b := &ix.cols, &ix.blk
	b.reserve(len(cols.X))
	idx, d := s.idx[:3], s.d[:3]
	for t, q := range targets {
		if q.IsFinite() {
			_, hits := best3(&q, cols.X, cols.Y, cols.Z, b.dist, b.hit)
			pick(idx, d, b.dist, b.hit[:hits], nil)
			plan.FillWeights(t, idx, d)
			continue
		}
		ix.threeNNRow(plan, s, t, q)
	}
}

// joinRows writes every row over a grid, cell by cell in the order bin
// left in tord.
//
//edgepc:hotpath
func (ix *Index) joinRows(plan *sample.InterpPlan, s *scratch, targets []geom.Point3) {
	b := &ix.blk
	idx, d := s.idx[:3], s.d[:3]
	lo := int32(0)
	for _, hi := range ix.tcnt[:len(ix.tcnt)-1] {
		if lo == hi {
			continue
		}
		n, f := ix.gather(b, targets[ix.tord[lo]])
		for _, t := range ix.tord[lo:hi] {
			q := targets[t]
			if n >= 3 && q.IsFinite() {
				third, hits := best3(&q, b.x[:n], b.y[:n], b.z[:n], b.dist, b.hit)
				if third < f.bound(q) {
					pick(idx, d, b.dist, b.hit[:hits], b.id)
					plan.FillWeights(int(t), idx, d)
					continue
				}
			}
			ix.threeNNRow(plan, s, int(t), q)
		}
		lo = hi
	}
}
