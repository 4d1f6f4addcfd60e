package core

import (
	"fmt"
	"sync"

	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/parallel"
	"repro/internal/spatial"
)

// WindowSearcher is the paper's index-based neighbor searcher (§5.2.2): on a
// structurized cloud, the neighbors of the point at position p are taken from
// the window of positions {p−W/2, …, p, …, p+W/2}.
//
// With W == k the k window members are returned directly — zero distance
// computations, the pure index pick of §4.3 (Fig. 10(b) uses W = k+1). With
// W > k the k nearest-by-distance points inside the window are selected,
// costing O(W) per query instead of the SOTA's O(N); the window size trades
// false-neighbor ratio against speed (Fig. 15a). The selection is
// spatial.NearestK over the window's points as they are stored, the query
// itself skipped: the k smallest (DistSq, position) pairs, ascending, which
// is what a scan of the window in position order keeps — an AVX2 kernel
// where the host has it, that scan where it does not or where the kernel
// declines (a NaN, k > 16, more than 64 points at or below its bound).
type WindowSearcher struct {
	// W is the search window size, clamped to [k, N]. Zero means W = k
	// (pure index selection).
	W int
}

// Name returns the algorithm name used in reports.
func (w WindowSearcher) Name() string { return "morton-window" }

// SearchPositions finds k neighbors for each query, where queries are given
// as *positions into the structurized order* of points. The result is flat
// (query-major) and holds positions into points — the same index space the
// grouping stage consumes.
func (w WindowSearcher) SearchPositions(points []geom.Point3, queryPos []int, k int) ([]int, error) {
	return w.SearchPositionsInto(nil, points, queryPos, k)
}

// SearchPositionsInto is SearchPositions writing the list into out, which it
// reuses like append. It allocates nothing else once warm.
func (w WindowSearcher) SearchPositionsInto(out []int, points []geom.Point3, queryPos []int, k int) ([]int, error) {
	return w.searchInto(out, points, queryPos, len(queryPos), k)
}

// searchInto answers nq queries, query q at position queryPos[q], or at
// position q when queryPos is nil.
func (w WindowSearcher) searchInto(out []int, points []geom.Point3, queryPos []int, nq, k int) ([]int, error) {
	n := len(points)
	if n == 0 {
		return nil, neighbor.ErrNoPoints
	}
	if k < 1 || k > n {
		return nil, fmt.Errorf("%w: k=%d with %d points", neighbor.ErrBadK, k, n)
	}
	win := w.W
	if win < k {
		win = k
	}
	if win > n {
		win = n
	}
	if cap(out) < nq*k {
		out = make([]int, nq*k)
	}
	out = out[:nq*k]
	j := windowJobs.Get().(*windowJob)
	*j = windowJob{points: points, queryPos: queryPos, out: out, k: k, win: win}
	parallel.Split(nq, parallel.Workers(nq), j)
	*j = windowJob{}
	windowJobs.Put(j)
	return out, nil
}

// maxStackWin is the largest window, and so the largest k, whose selection
// scratch lives on the stack; a wider one takes a pooled windowScratch.
const maxStackWin = 64

// windowScratch is a chunk's selection scratch for a window past
// maxStackWin, pooled so that a search of any W allocates nothing once warm.
type windowScratch struct {
	idx  []int
	d    []float64
	dist []float64
	hit  []int32
}

var windowScratches = sync.Pool{New: func() any { return new(windowScratch) }}

// windowJob is one window search fanned out over its queries, pooled so
// that a search allocates nothing once warm.
type windowJob struct {
	points   []geom.Point3
	queryPos []int // nil: query q is at position q
	out      []int
	k, win   int
}

var windowJobs = sync.Pool{New: func() any { return new(windowJob) }}

// Chunk answers queries [lo, hi).
func (j *windowJob) Chunk(lo, hi int) {
	k, win, n := j.k, j.win, len(j.points)
	pos := func(q int) int {
		if j.queryPos == nil {
			return q
		}
		return j.queryPos[q]
	}
	if win == k {
		// Pure index pick: the k consecutive positions centered on the query.
		for q := lo; q < hi; q++ {
			start := clampWindow(pos(q), k, n)
			row := j.out[q*k : (q+1)*k]
			for i := range row {
				row[i] = start + i
			}
		}
		return
	}
	// Windowed exact-within-window: rank the W candidates by distance. The
	// query point itself is excluded, matching the paper's Fig. 10(b)
	// worked example (W = k+1 around P2 selects P1, P4 and P0, not P2) —
	// spending a neighbor slot on the zero-distance self would waste it.
	var idxBuf [maxStackWin]int
	var dBuf, distBuf [maxStackWin]float64
	var hitBuf [maxStackWin]int32
	idx, d, dist, hit := idxBuf[:], dBuf[:], distBuf[:], hitBuf[:]
	if win4 := (win + 3) &^ 3; win4 > maxStackWin {
		s := windowScratches.Get().(*windowScratch)
		defer windowScratches.Put(s)
		if len(s.dist) < win4 {
			s.idx, s.d = make([]int, win4), make([]float64, win4)
			s.dist, s.hit = make([]float64, win4), make([]int32, win4)
		}
		idx, d, dist, hit = s.idx, s.d, s.dist, s.hit
	}
	idx, d = idx[:k], d[:k]
	for q := lo; q < hi; q++ {
		// The window's W points as they are stored, the query skipped: the
		// k smallest (DistSq, position) pairs, what a scan of the window in
		// position order keeps.
		p := pos(q)
		start := clampWindow(p, win, n)
		spatial.NearestK(&j.points[p], j.points[start:start+win], p-start, dist, hit, idx, d)
		for i, w := range idx {
			j.out[q*k+i] = start + w
		}
	}
}

// clampWindow returns the start of a window of the given size centered on pos
// and fully contained in [0, n).
func clampWindow(pos, size, n int) int {
	start := pos - size/2
	if start < 0 {
		start = 0
	}
	if start+size > n {
		start = n - size
	}
	return start
}

// SearchAll finds k neighbors for every point of the structurized cloud (the
// DGCNN case, where every point is a query).
func (w WindowSearcher) SearchAll(points []geom.Point3, k int) ([]int, error) {
	return w.SearchAllInto(nil, points, k)
}

// SearchAllInto is SearchAll writing the list into out, which it reuses like
// append: a caller that keeps out allocates nothing.
func (w WindowSearcher) SearchAllInto(out []int, points []geom.Point3, k int) ([]int, error) {
	return w.searchInto(out, points, nil, len(points), k)
}

// StructurizedSearcher adapts WindowSearcher to the neighbor.Searcher
// interface for query sets that are a *subset of the candidate points in
// structurized order*. It locates each query's position by exact coordinate
// match against the candidate order — O(1) when QueryPositions is provided,
// otherwise via a prepass map. It exists so the approximate searcher can be
// dropped into harnesses written against neighbor.Searcher.
type StructurizedSearcher struct {
	Window WindowSearcher
	// QueryPositions, when non-nil, gives the structurized position of each
	// query and skips coordinate matching.
	QueryPositions []int
}

// Name implements neighbor.Searcher.
func (s StructurizedSearcher) Name() string { return "morton-window" }

// Search implements neighbor.Searcher.
func (s StructurizedSearcher) Search(points, queries []geom.Point3, k int) ([]int, error) {
	pos := s.QueryPositions
	if pos == nil {
		index := make(map[geom.Point3]int, len(points))
		for i := len(points) - 1; i >= 0; i-- {
			index[points[i]] = i // earliest occurrence wins
		}
		pos = make([]int, len(queries))
		for i, q := range queries {
			p, ok := index[q]
			if !ok {
				return nil, fmt.Errorf("%w: query %d not among candidate points", ErrNotStructurized, i)
			}
			pos[i] = p
		}
	} else if len(pos) != len(queries) {
		return nil, fmt.Errorf("core: %d query positions for %d queries", len(pos), len(queries))
	}
	return s.Window.SearchPositions(points, pos, k)
}
