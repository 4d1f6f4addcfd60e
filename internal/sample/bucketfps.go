package sample

import (
	"fmt"
	"math"

	"repro/internal/geom"
)

// BucketFPS is farthest point sampling with distance-bound pruning and
// per-bucket distance caching, designed for Morton-structurized clouds where
// consecutive indexes are approximately spatial neighbors (FlashFPS-style
// pruning; Li et al.'s adjustable FPS for approximately-sorted data).
//
// The cloud is partitioned into contiguous buckets of the current order. For
// each bucket the sampler caches
//
//   - an axis-aligned bounding box of the bucket's points, and
//   - cmax: the maximum min-distance-to-selected-set over the bucket as of the
//     bucket's last refresh.
//
// Distances are updated lazily: each bucket remembers how many picks it has
// applied, and newer picks are replayed only when the bucket is actually
// refreshed. Because min-distances only decrease, a stale cmax is always an
// upper bound on the bucket's true max — so on every pick the sampler can
// skip any bucket whose cached cmax cannot beat the current global best
// (distance-bound pruning), and during replay it can skip any pick whose
// AABB lower bound to the bucket already exceeds cmax (the pick is provably a
// no-op there). Per pick this scans O(√N) bucket summaries plus a handful of
// refreshed buckets instead of all N points.
//
// How much the pruning saves is a property of the order the points are in,
// not of the points: buckets are runs of consecutive indexes, and a bound
// over a run is only tight when the run is spatially compact. Picks and
// correctness never depend on the order. Measured on an 8192-point W1 level,
// 2048 picks at Frac 1 (best of 8 runs, 2-core host): FPSIndexes 34.7 ms;
// this sampler over the level as a Baseline model holds it (raw scan order)
// 18.0 ms, over a level that is the FPS picks of a larger one (what every SA
// module after the first sees) 22.0 ms, shuffled 26.3 ms; over a
// Morton-sorted copy 5.9 ms. A Baseline level is never Morton-ordered and an
// S+N level stops being so after its first exact FPS, which is why the
// model's exact sites go through package spatial — it sorts first (6.6 ms
// with the sort) and calls ExactInto — and why the 3.8× this sampler reads
// against FPS in bench/'s probe, taken on a sorted copy, is not what a caller
// with an unsorted level gets.
//
// Frac is the quality knob: with m = round(Frac·n), the sampler takes n−m
// stride seeds (UniformIndexes positions, cheap but spatially uneven) and m
// farthest-point refinement picks on top of them. Frac=1 is exact FPS —
// index-identical to FPS.Sample with the same StartIndex, pruning acting as
// a pure speedup; Frac=0 is pure stride. Note the zero value of Frac is 0
// (pure stride); callers wanting exact behavior must set Frac explicitly.
//
// The one intentional divergence from FPS.Sample at Frac=1: BucketFPS marks
// selected points with a −1 distance sentinel so returned indexes are always
// unique, whereas fpsFrom re-picks index 0 once every remaining point
// coincides with the selected set (fully degenerate clouds). On any cloud
// where exact FPS itself does not duplicate, the outputs are bit-identical.
//
// BucketFPS keeps reusable scratch between calls; it is not safe for
// concurrent use. The zero value (beyond Frac) is ready to use.
type BucketFPS struct {
	// Frac in [0,1] is the fraction of the n samples chosen by
	// farthest-point refinement; the remainder are stride seeds. Values
	// outside [0,1] are clamped.
	Frac float64
	// StartIndex is the first pick when Frac is 1 (no stride seeds),
	// mirroring FPS.StartIndex. Out-of-range values fall back to 0.
	StartIndex int
	// BucketSize is the number of consecutive points per bucket. 0 means
	// ≈√N clamped to [32, 4096].
	BucketSize int
	// Buckets optionally gives explicit bucket offsets (0 = Buckets[0] <
	// … < Buckets[M] = N), e.g. runs of equal Morton prefixes from
	// core.Structurized. When set it overrides BucketSize.
	Buckets []int

	s bucketScratch
}

// bucketScratch is the reusable per-call state: grown in SampleInto, written
// by the allocation-free kernel.
type bucketScratch struct {
	dist    []float64   // min sq. distance to selected set; −1 marks selected
	off     []int       // bucket offsets, len M+1
	applied []int       // picks already replayed into each bucket's dist
	boxes   []geom.AABB // per-bucket bounds
	cmax    []float64   // per-bucket max dist as of last refresh (upper bound)
	first   []int       // per-bucket lowest index: can the bucket win an argmax tie?

	// ids and picked are set per call. ids[i] is the index argmax ties are
	// broken by (and ExactInto reports) for the point at position i; nil
	// means the position itself. picked is the distance a selected point is
	// left with: −1 keeps it from ever being picked again, 0 — its true
	// distance to the selected set — is what FPSIndexes leaves it with.
	ids    []int32
	picked float64
}

// id is the index the point at position i competes under in an argmax tie.
func (s *bucketScratch) id(i int) int {
	if s.ids == nil {
		return i
	}
	return int(s.ids[i])
}

// Name implements Sampler.
func (*BucketFPS) Name() string { return "bucketfps" }

// Sample implements Sampler.
func (b *BucketFPS) Sample(c *geom.Cloud, n int) ([]int, error) {
	if err := checkArgs(c, n); err != nil {
		return nil, err
	}
	return b.SampleInto(c.Points, n, nil)
}

// SampleIndexes runs bucketed FPS directly over a point slice, mirroring
// FPSIndexes for callers that hold bare slices rather than clouds.
func (b *BucketFPS) SampleIndexes(pts []geom.Point3, n int) ([]int, error) {
	return b.SampleInto(pts, n, nil)
}

// SampleInto is SampleIndexes reusing out's backing array when it has
// capacity for n indexes. It returns the (possibly re-allocated) slice, the
// way append does; steady-state callers pass the previous result back in and
// reach zero allocations per call.
func (b *BucketFPS) SampleInto(pts []geom.Point3, n int, out []int) ([]int, error) {
	N := len(pts)
	if err := checkCount(N, n); err != nil {
		return nil, err
	}
	frac := b.Frac
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	m := int(frac*float64(n) + 0.5)
	if cap(out) < n {
		out = make([]int, n)
	}
	out = out[:n]
	if m == 0 {
		// Pure stride: no distances, no bucket metadata.
		writeUniformIndexes(out, N)
		return out, nil
	}
	if err := b.prepare(N); err != nil {
		return nil, err
	}
	b.s.ids, b.s.picked = nil, -1
	b.kernel(pts, out, n-m, b.StartIndex)
	return out, nil
}

// ExactInto is FPSIndexes(level, n, 0) computed over a re-ordered copy of
// the level: pts[i] is the level's point ids[i], and the result holds level
// indexes. The pruning rate of the kernel is a property of the order pts is
// in (see the type comment), so a caller that owns a spatial order of the
// level — package spatial — gets exact FPS's picks at a fraction of its
// cost. Index-identical means all of it: argmax ties go to the lowest level
// index, and once every remaining point coincides with the selected set,
// index 0 is picked again and again, exactly as fpsFrom does (SampleInto's
// unique-picks sentinel is not applied). Frac and StartIndex are ignored;
// ids == nil means pts is the level in its own order. out is reused like
// SampleInto's.
func (b *BucketFPS) ExactInto(pts []geom.Point3, ids []int32, n int, out []int) ([]int, error) {
	N := len(pts)
	if err := checkCount(N, n); err != nil {
		return nil, err
	}
	if ids != nil && len(ids) != N {
		return nil, fmt.Errorf("sample: %d ids for %d points", len(ids), N)
	}
	if cap(out) < n {
		out = make([]int, n)
	}
	out = out[:n]
	if err := b.prepare(N); err != nil {
		return nil, err
	}
	start := 0
	for i, id := range ids {
		if id == 0 {
			start = i
			break
		}
	}
	b.s.ids, b.s.picked = ids, 0
	b.kernel(pts, out, 0, start)
	b.s.ids = nil // the caller's slice is not ours to keep
	if ids != nil {
		for i, pos := range out {
			out[i] = int(ids[pos])
		}
	}
	return out, nil
}

// prepare sizes the scratch for an N-point cloud and lays out the bucket
// offsets. All allocation happens here, outside the hot path.
func (b *BucketFPS) prepare(N int) error {
	s := &b.s
	if cap(s.dist) < N {
		s.dist = make([]float64, N)
	}
	s.dist = s.dist[:N]
	if b.Buckets != nil {
		if len(b.Buckets) < 2 || b.Buckets[0] != 0 || b.Buckets[len(b.Buckets)-1] != N {
			return fmt.Errorf("sample: bucket offsets must run 0..%d, got %d offsets", N, len(b.Buckets))
		}
		for j := 1; j < len(b.Buckets); j++ {
			if b.Buckets[j] <= b.Buckets[j-1] {
				return fmt.Errorf("sample: bucket offsets not strictly increasing at %d", j)
			}
		}
		s.off = append(s.off[:0], b.Buckets...)
	} else {
		B := b.BucketSize
		if B <= 0 {
			B = int(math.Round(math.Sqrt(float64(N))))
			if B < 32 {
				B = 32
			}
			if B > 4096 {
				B = 4096
			}
		}
		if B > N {
			B = N
		}
		s.off = s.off[:0]
		for o := 0; o < N; o += B {
			s.off = append(s.off, o)
		}
		s.off = append(s.off, N)
	}
	M := len(s.off) - 1
	if cap(s.applied) < M {
		s.applied = make([]int, M)
		s.boxes = make([]geom.AABB, M)
		s.cmax = make([]float64, M)
		s.first = make([]int, M)
	}
	s.applied = s.applied[:M]
	s.boxes = s.boxes[:M]
	s.cmax = s.cmax[:M]
	s.first = s.first[:M]
	return nil
}

// kernel fills out with seeds stride picks (or, with no seeds, the point at
// position start) followed by farthest-point refinement picks, all as
// positions into pts. The scratch must already be prepared for len(pts)
// points, with ids and picked set.
//
//edgepc:hotpath
func (b *BucketFPS) kernel(pts []geom.Point3, out []int, seeds, start int) {
	s := &b.s
	n := len(out)
	N := len(pts)
	cnt := 0
	if seeds > 0 {
		// Stride seeds first, then an approximate distance init: point i's
		// nearest seed is positionally near j0 = i·(seeds−1)/(N−1) in the
		// (approximately sorted) Morton order, so a ±2-seed window around
		// j0 gives min-distance in O(N) instead of O(N·seeds). Exact for
		// seeds ≤ 3; beyond that a missed closer seed leaves dist an
		// over-estimate, nudging refinement toward that region — an
		// approximation of the seed set's coverage, never an invalid
		// distance state (replayed picks still apply exactly).
		writeUniformIndexes(out[:seeds], N)
		for i := 0; i < N; i++ {
			j0 := 0
			if N > 1 {
				j0 = i * (seeds - 1) / (N - 1)
			}
			lo, hi := j0-2, j0+2
			if lo < 0 {
				lo = 0
			}
			if hi > seeds-1 {
				hi = seeds - 1
			}
			best := math.Inf(1)
			for j := lo; j <= hi; j++ {
				if d := pts[i].DistSq(pts[out[j]]); d < best {
					best = d
				}
			}
			s.dist[i] = best
		}
		for j := 0; j < seeds; j++ {
			s.dist[out[j]] = -1
		}
		cnt = seeds
	} else {
		if start < 0 || start >= N {
			start = 0
		}
		out[0] = start
		p := pts[start]
		for i := 0; i < N; i++ {
			s.dist[i] = pts[i].DistSq(p)
		}
		s.dist[start] = s.picked
		cnt = 1
	}
	if cnt >= n {
		return
	}
	M := len(s.off) - 1
	for j := 0; j < M; j++ {
		lo, hi := s.off[j], s.off[j+1]
		box := geom.EmptyAABB()
		m, first := s.dist[lo], s.id(lo)
		for i := lo; i < hi; i++ {
			box.Extend(pts[i])
			if s.dist[i] > m {
				m = s.dist[i]
			}
			if id := s.id(i); id < first {
				first = id
			}
		}
		s.boxes[j] = box
		s.cmax[j] = m
		s.applied[j] = cnt
		s.first[j] = first
	}
	for cnt < n {
		// Phase A: refresh the bucket with the largest cached bound; its
		// exact max seeds the global best and prunes most other buckets.
		jA := 0
		for j := 1; j < M; j++ {
			if s.cmax[j] > s.cmax[jA] {
				jA = j
			}
		}
		bestD, bestIdx := b.refresh(pts, out[:cnt], jA)
		bestID := s.id(bestIdx)
		// Phase B: every other bucket is either pruned by its cached upper
		// bound or refreshed and compared. The lowest-index tie rules here
		// and in refresh reproduce exact FPS's "first index with maximal
		// distance" pick. A cached max exactly equal to bestD can only
		// matter if the bucket could win the index tiebreak, i.e. if it
		// holds an index below the current best's.
		for j := 0; j < M; j++ {
			if j == jA {
				continue
			}
			cm := s.cmax[j]
			if cm < bestD || (!(cm > bestD) && s.first[j] > bestID) {
				continue
			}
			d, i := b.refresh(pts, out[:cnt], j)
			if id := s.id(i); d > bestD || (!(d < bestD) && id < bestID) {
				bestD, bestIdx, bestID = d, i, id
			}
		}
		out[cnt] = bestIdx
		cnt++
		s.dist[bestIdx] = s.picked
		// The winning bucket's cmax is now an over-estimate (its max just
		// dropped); that is safe — cmax only needs to stay an upper
		// bound — and Phase A will refresh it on the next pick.
	}
}

// refresh brings bucket j's distances up to date — replaying picks the bucket
// has not yet applied, skipping any pick whose AABB lower bound to the bucket
// is at least the cached max (such a pick cannot lower any distance below a
// value that matters) — and rescans for the bucket's max and first argmax.
//
//edgepc:hotpath
func (b *BucketFPS) refresh(pts []geom.Point3, picks []int, j int) (float64, int) {
	s := &b.s
	lo, hi := s.off[j], s.off[j+1]
	// cm0 is the cached bound from before this replay: every dist in the
	// bucket is ≤ cm0, so a pick at AABB-distance ≥ cm0 lowers nothing.
	cm0 := s.cmax[j]
	box := s.boxes[j]
	for k := s.applied[j]; k < len(picks); k++ {
		p := pts[picks[k]]
		// The squared distance from p to the nearest point of the box (0
		// inside, else the per-axis overshoots), branch-free: this test runs
		// once per pick per bucket and is most of what a far bucket costs.
		dx := max(box.Min.X-p.X, p.X-box.Max.X, 0)
		dy := max(box.Min.Y-p.Y, p.Y-box.Max.Y, 0)
		dz := max(box.Min.Z-p.Z, p.Z-box.Max.Z, 0)
		if dx*dx+dy*dy+dz*dz >= cm0 {
			continue
		}
		for i := lo; i < hi; i++ {
			if d := pts[i].DistSq(p); d < s.dist[i] {
				s.dist[i] = d
			}
		}
	}
	s.applied[j] = len(picks)
	m, mi := s.dist[lo], lo
	if ids := s.ids; ids == nil {
		for i := lo + 1; i < hi; i++ {
			if s.dist[i] > m {
				m, mi = s.dist[i], i
			}
		}
	} else {
		for i := lo + 1; i < hi; i++ {
			//edgepc:lint-ignore floateq an argmax tie is bit-equal distances, broken by index as exact FPS's scan breaks it
			if d := s.dist[i]; d > m || (d == m && ids[i] < ids[mi]) {
				m, mi = d, i
			}
		}
	}
	s.cmax[j] = m
	return m, mi
}
