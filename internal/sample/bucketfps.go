package sample

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/geom"
	"repro/internal/tensor"
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
// 2048 picks at Frac 1 (BenchmarkFPSOrder / BenchmarkFPS in package spatial,
// best of 3 runs of 10, one core of a 2-core Xeon with AVX2, vector
// refresh): FPSIndexes 33 ms; this sampler over the level as a Baseline
// model holds it (raw scan order) 7.2 ms, over a level that is the FPS picks
// of a larger one (what every SA module after the first sees) 8.9 ms,
// shuffled 11.2 ms; over a Morton-sorted copy 2.4 ms. A Baseline level is
// never Morton-ordered and an S+N level stops being so after its first exact
// FPS, which is why the model's sites go through package spatial — it sorts
// first (2.7 ms with the sort) and calls ExactInto, or OrderedInto for the
// quality knob.
//
// On a level whose coordinates are all finite, and on a CPU with AVX2, a
// refresh runs four points per instruction (lane i of a register is point
// i of the bucket) and returns the same bits as the Go loops, which stay as
// the fallback and as the tests' oracle; DESIGN.md §12 has the argument.
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

// Coords is a level stored as three coordinate columns: point i is (X[i],
// Y[i], Z[i]). Finite records that every coordinate is a finite number,
// which is what lets BucketFPS run its vector refresh; false is always safe.
type Coords struct {
	X, Y, Z []float64
	Finite  bool
}

// At returns point i.
func (c *Coords) At(i int) geom.Point3 { return geom.Point3{X: c.X[i], Y: c.Y[i], Z: c.Z[i]} }

// Resize makes every column n long, keeping the storage when it has room.
// The contents are not cleared.
func (c *Coords) Resize(n int) {
	if cap(c.X) < n || cap(c.Y) < n || cap(c.Z) < n {
		buf := make([]float64, 3*n)
		c.X, c.Y, c.Z = buf[:n:n], buf[n:2*n:2*n], buf[2*n:]
	}
	c.X, c.Y, c.Z = c.X[:n], c.Y[:n], c.Z[:n]
}

// SetPoints makes c the columns of pts, in their order, and records whether
// they are finite.
func (c *Coords) SetPoints(pts []geom.Point3) {
	c.Resize(len(pts))
	finite := true
	for i, p := range pts {
		c.X[i], c.Y[i], c.Z[i] = p.X, p.Y, p.Z
		finite = finite && p.IsFinite()
	}
	c.Finite = finite
}

// fpsAVX2 is the answer of tensor's one CPUID probe: whether a refresh over a
// finite level runs the AVX2 kernels or the Go loops those are tested
// against. A variable only so tests can run both on one host.
var fpsAVX2 = tensor.HasAVX2()

// bucketScratch is the reusable per-call state: grown in prepare, written
// by the allocation-free kernel.
type bucketScratch struct {
	dist    []float64   // min sq. distance to selected set; −1 marks selected
	off     []int       // bucket offsets, len M+1
	applied []int       // picks already replayed into each bucket's dist
	boxes   []geom.AABB // per-bucket bounds
	cmax    []float64   // per-bucket max dist as of last refresh (upper bound)
	first   []int       // per-bucket lowest index: can the bucket win an argmax tie?
	// arg is the position the vector refresh last found cmax at, −1 before
	// its first refresh.
	arg []int
	// own is SampleInto's column copy of the level it is given.
	own Coords
	// pos[i] is the position of level index i, for placing stride seeds in
	// a re-ordered level; grown only by calls that need it.
	pos []int32

	// lvl, picks, ids, picked and vec are set per call. lvl is the level,
	// and picks the positions picked so far, in pick order. ids[i] is the
	// index argmax ties are broken by (and ExactInto reports) for the point
	// at position i; nil means the position itself. picked is the distance a
	// selected point is left with: −1 keeps it from ever being picked again,
	// 0 — its true distance to the selected set — is what FPSIndexes leaves
	// it with. vec is whether refresh runs the AVX2 kernels.
	lvl    Coords
	picks  []int
	ids    []int32
	picked float64
	vec    bool
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
	if err := checkCount(len(pts), n); err != nil {
		return nil, err
	}
	if b.seeds(n) == n {
		// Pure stride: no coordinates, no distances, no bucket metadata.
		if cap(out) < n {
			out = make([]int, n)
		}
		out = out[:n]
		writeUniformIndexes(out, len(pts))
		return out, nil
	}
	b.s.own.SetPoints(pts)
	return b.OrderedInto(b.s.own, nil, n, out)
}

// OrderedInto is SampleInto over a re-ordered copy of the level: c's point i
// is the level's point ids[i] (ids, a permutation, or nil when c is the
// level in its own order), and the result holds level indexes — the picks
// SampleInto(level, n, out) returns, stride seeds and ties included, in any
// order of c. As with ExactInto, the order decides only what the pruning
// costs; package spatial runs the degradation rung's sampler through it.
func (b *BucketFPS) OrderedInto(c Coords, ids []int32, n int, out []int) ([]int, error) {
	return b.run(c, ids, n, out, b.seeds(n), b.StartIndex, -1)
}

// ExactInto is FPSIndexes(level, n, 0) computed over a re-ordered copy of
// the level: c's point i is the level's point ids[i], and the result holds
// level indexes. The pruning rate of the kernel is a property of the order c
// is in (see the type comment), so a caller that owns a spatial order of the
// level — package spatial — gets exact FPS's picks at a fraction of its
// cost. Index-identical means all of it: argmax ties go to the lowest level
// index, and once every remaining point coincides with the selected set,
// index 0 is picked again and again, exactly as fpsFrom does (SampleInto's
// unique-picks sentinel is not applied). Frac and StartIndex are ignored;
// ids == nil means c is the level in its own order. out is reused like
// SampleInto's.
func (b *BucketFPS) ExactInto(c Coords, ids []int32, n int, out []int) ([]int, error) {
	return b.run(c, ids, n, out, 0, 0, 0)
}

// seeds is how many of n picks are stride seeds: n − round(Frac·n), with
// Frac clamped to [0, 1].
func (b *BucketFPS) seeds(n int) int {
	frac := b.Frac
	if frac < 0 {
		frac = 0
	}
	if frac > 1 {
		frac = 1
	}
	return n - int(float64(frac*float64(n))+0.5)
}

// run fills out with n level indexes of the level c re-orders by ids:
// seeds stride seeds over the level's order, or with none level index start,
// then farthest-point picks, a selected point's distance left at picked.
func (b *BucketFPS) run(c Coords, ids []int32, n int, out []int, seeds, start int, picked float64) ([]int, error) {
	N := len(c.X)
	if len(c.Y) != N || len(c.Z) != N {
		return nil, fmt.Errorf("sample: coordinate columns of %d, %d and %d points", N, len(c.Y), len(c.Z))
	}
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
	if seeds == n {
		// Pure stride: no distances, no bucket metadata.
		writeUniformIndexes(out, N)
		return out, nil
	}
	if err := b.prepare(N, seeds > 0 && ids != nil); err != nil {
		return nil, err
	}
	if start < 0 || start >= N {
		start = 0
	}
	if seeds == 0 {
		for p, id := range ids {
			if int(id) == start {
				start = p
				break
			}
		}
	} else if ids != nil {
		for p, id := range ids {
			if id < 0 || int(id) >= N {
				return nil, fmt.Errorf("sample: id %d of %d points", id, N)
			}
			b.s.pos[id] = int32(p)
		}
	}
	b.s.lvl, b.s.ids, b.s.picked = c, ids, picked
	b.kernel(out, seeds, start)
	b.s.lvl, b.s.ids, b.s.picks = Coords{}, nil, nil // the caller's slices are not ours to keep
	if ids != nil {
		for i, p := range out {
			out[i] = int(ids[p])
		}
	}
	return out, nil
}

// prepare sizes the scratch for an N-point cloud, with the level-index to
// position map when pos is set, and lays out the bucket offsets. All
// allocation happens here, outside the hot path.
func (b *BucketFPS) prepare(N int, pos bool) error {
	s := &b.s
	if cap(s.dist) < N {
		s.dist = make([]float64, N)
	}
	s.dist = s.dist[:N]
	if pos {
		if cap(s.pos) < N {
			s.pos = make([]int32, N)
		}
		s.pos = s.pos[:N]
	}
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
		s.arg = make([]int, M)
	}
	s.applied = s.applied[:M]
	s.boxes = s.boxes[:M]
	s.cmax = s.cmax[:M]
	s.first = s.first[:M]
	s.arg = s.arg[:M]
	return nil
}

// kernel fills out with seeds stride picks over the level's order (or, with
// no seeds, the point at position start) followed by farthest-point
// refinement picks, all as positions into lvl. The scratch must already be
// prepared for the level, with lvl, ids and picked set, and pos filled when
// there are seeds and ids.
//
//edgepc:hotpath
func (b *BucketFPS) kernel(out []int, seeds, start int) {
	s := &b.s
	s.picks = out
	lvl := &s.lvl
	n := len(out)
	N := len(lvl.X)
	s.vec = fpsAVX2 && lvl.Finite
	cnt := 0
	if seeds > 0 {
		// Stride seeds first, then an approximate distance init: the
		// nearest seed of level index i is positionally near j0 =
		// i·(seeds−1)/(N−1) in the level's (approximately sorted) Morton
		// order, so a ±2-seed window around j0 gives min-distance in O(N)
		// instead of O(N·seeds). Seeds and windows are taken in the level's
		// order whatever order lvl is in; positions come from pos. Exact for
		// seeds ≤ 3; beyond that a missed closer seed leaves dist an
		// over-estimate, nudging refinement toward that region — an
		// approximation of the seed set's coverage, never an invalid
		// distance state (replayed picks still apply exactly).
		writeUniformIndexes(out[:seeds], N)
		if s.ids != nil {
			for j, i := range out[:seeds] {
				out[j] = int(s.pos[i])
			}
		}
		for i := 0; i < N; i++ {
			j0 := 0
			if N > 1 {
				j0 = s.id(i) * (seeds - 1) / (N - 1)
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
				if d := lvl.At(i).DistSq(lvl.At(out[j])); d < best {
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
		p := lvl.At(start)
		for i := 0; i < N; i++ {
			s.dist[i] = lvl.At(i).DistSq(p)
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
			box.Extend(lvl.At(i))
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
		s.arg[j] = -1
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
		bestD, bestIdx := b.refresh(cnt, jA)
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
			d, i := b.refresh(cnt, j)
			if id := s.id(i); d > bestD || (!(d < bestD) && id < bestID) {
				bestD, bestIdx, bestID = d, i, id
			}
		}
		out[cnt] = bestIdx
		s.dist[bestIdx] = s.picked
		cnt++
		// The winning bucket's cmax is now an over-estimate (its max just
		// dropped); that is safe — cmax only needs to stay an upper
		// bound — and Phase A will refresh it on the next pick.
	}
}

// refresh brings bucket j's distances up to date with the first cnt picks —
// replaying picks the bucket has not yet applied, skipping any pick whose
// AABB lower bound to the bucket is at least the cached max (such a pick
// cannot lower any distance below a value that matters) — and rescans for
// the bucket's max and first argmax.
//
//edgepc:hotpath
func (b *BucketFPS) refresh(cnt, j int) (float64, int) {
	s := &b.s
	if s.vec {
		return s.refreshAVX2(cnt, j)
	}
	lo, hi := s.off[j], s.off[j+1]
	// cm0 is the cached bound from before this replay: every dist in the
	// bucket is ≤ cm0, so a pick at AABB-distance ≥ cm0 lowers nothing.
	cm0 := s.cmax[j]
	box := &s.boxes[j]
	for k := s.applied[j]; k < cnt; k++ {
		p := s.lvl.At(s.picks[k])
		if boxDistSq(box, p) >= cm0 {
			continue
		}
		for i := lo; i < hi; i++ {
			if d := s.lvl.At(i).DistSq(p); d < s.dist[i] {
				s.dist[i] = d
			}
		}
	}
	s.applied[j] = cnt
	m, mi := s.argmax(lo, hi)
	s.cmax[j] = m
	return m, mi
}

// boxDistSq is the squared distance from p to the nearest point of box: 0
// inside, else the per-axis overshoots, summed in DistSq's order. It is
// branch-free because it runs once per pick per bucket and is most of what a
// far bucket costs.
func boxDistSq(box *geom.AABB, p geom.Point3) float64 {
	dx := max(box.Min.X-p.X, p.X-box.Max.X, 0)
	dy := max(box.Min.Y-p.Y, p.Y-box.Max.Y, 0)
	dz := max(box.Min.Z-p.Z, p.Z-box.Max.Z, 0)
	return float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
}

// argmax scans positions [lo, hi) for the largest dist and the lowest id
// holding it.
func (s *bucketScratch) argmax(lo, hi int) (float64, int) {
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
	return m, mi
}

// refreshAVX2 is refresh on the vector kernels, for a finite level. Which
// picks replay is decided four at a time; each replayed pick lowers the
// bucket four points at a time, the last one also taking the bucket's max;
// and the argmax is the first lane equal to that max (the lowest id among
// them when ids is set). A refresh that replays nothing keeps the bucket's
// distances, so a cached argmax whose distance still equals cmax is still
// the answer: between refreshes a bucket's only writes are picks setting one
// distance to 0 or −1, and every other distance is at most cmax with a
// higher id wherever it equals it.
//
//edgepc:hotpath
func (s *bucketScratch) refreshAVX2(cnt, j int) (float64, int) {
	lo, hi := s.off[j], s.off[j+1]
	cm0 := s.cmax[j]
	last := -1
	for k := s.applied[j]; k < cnt; k += replayBlock {
		for mask := s.replayMask(k, min(k+replayBlock, cnt), &s.boxes[j], cm0); mask != 0; mask &= mask - 1 {
			if last >= 0 {
				s.update(lo, hi, last)
			}
			last = k + bits.TrailingZeros64(mask)
		}
	}
	s.applied[j] = cnt
	var m float64
	var mi int
	if last >= 0 {
		m = s.update(lo, hi, last)
		mi = s.find(lo, hi, m)
		if s.ids != nil {
			for i := s.find(mi+1, hi, m); i < hi; i = s.find(i+1, hi, m) {
				if s.ids[i] < s.ids[mi] {
					mi = i
				}
			}
		}
	} else {
		//edgepc:lint-ignore floateq the cached argmax holds while its own distance is bit-for-bit unchanged
		if a := s.arg[j]; a >= 0 && s.dist[a] == cm0 {
			return cm0, a
		}
		m, mi = s.argmax(lo, hi)
	}
	s.cmax[j], s.arg[j] = m, mi
	return m, mi
}

const (
	// replayBlock is the most picks one replay test takes: its answer is a
	// 64-bit mask.
	replayBlock = 64
	// laneSpan bounds one update or search call to a bucket's worth of
	// points at most: assembly is not asynchronously preemptible, and the
	// garbage collector and serve's watchdog wait on it.
	laneSpan = 4096
)

// replayMask returns bit k−lo set for every pick k in [lo, hi), hi−lo ≤ 64,
// whose squared AABB distance to box is not at least cm: the picks a
// refresh must replay.
//
//edgepc:hotpath
func (s *bucketScratch) replayMask(lo, hi int, box *geom.AABB, cm float64) uint64 {
	pos := s.picks[lo:hi]
	if len(pos) >= 4 {
		// The assembly checks no bound: the picks are positions of the
		// level, whose columns are of one length.
		return fpsReplay(&s.lvl.X[0], &s.lvl.Y[0], &s.lvl.Z[0], &pos[0], len(pos), box, cm)
	}
	var mask uint64
	for k, i := range pos {
		if !(boxDistSq(box, s.lvl.At(i)) >= cm) {
			mask |= 1 << k
		}
	}
	return mask
}

// update lowers dist over positions [lo, hi) to the squared distance from
// pick k wherever that is smaller, and returns the largest dist left there.
//
//edgepc:hotpath
func (s *bucketScratch) update(lo, hi, k int) float64 {
	p := s.lvl.At(s.picks[k])
	dist := s.dist[lo:hi]
	x, y, z := s.lvl.X[lo:hi], s.lvl.Y[lo:hi], s.lvl.Z[lo:hi]
	n := len(dist)
	m := math.Inf(-1)
	if n < 4 {
		for i := range dist {
			if d := (geom.Point3{X: x[i], Y: y[i], Z: z[i]}).DistSq(p); d < dist[i] {
				dist[i] = d
			}
			m = max(m, dist[i])
		}
		return m
	}
	_, _, _ = x[n-1], y[n-1], z[n-1] // the assembly checks no bound
	for o := 0; o < n; o += laneSpan {
		o = min(o, n-4) // a ragged last span overlaps the one before: the update is idempotent
		m = max(m, fpsUpdate(&dist[o], &x[o], &y[o], &z[o], min(laneSpan, n-o), p.X, p.Y, p.Z))
	}
	return m
}

// find returns the first position in [lo, hi) whose dist is m, or hi.
//
//edgepc:hotpath
func (s *bucketScratch) find(lo, hi int, m float64) int {
	dist := s.dist[lo:hi]
	n := len(dist)
	if n < 4 {
		for i, d := range dist {
			//edgepc:lint-ignore floateq the max is one of these values, bit for bit
			if d == m {
				return lo + i
			}
		}
		return hi
	}
	for o := 0; o < n; o += laneSpan {
		o = min(o, n-4) // a ragged last span overlaps the one before, which held no match
		span := min(laneSpan, n-o)
		if i := fpsFindEq(&dist[o], span, m); i < span {
			return lo + o + i
		}
	}
	return hi
}
