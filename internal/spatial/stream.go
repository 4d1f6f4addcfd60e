package spatial

import (
	"sync/atomic"
	"time"

	"repro/internal/parallel"
	"repro/internal/sample"
)

const (
	// wakeEvery is how many picks a searcher that has caught up with the
	// sampler sleeps through: waking it costs the sampler a futex call, and
	// the searcher tens of microseconds before a core runs it. Measured at
	// W1's shapes on two cores, batches of 16, 32, 64 and 128 picks left
	// the sampler's time alone and exposed a search tail that grew with the
	// batch (8192 → 2048 picks: 50, 90, 120–160 and 175 µs).
	wakeEvery = 16

	// streamGrain is the level size one more worker needs: a level of fewer
	// than 2·streamGrain points is sampled and searched on one goroutine,
	// where FPS takes tens of microseconds and a hand-off would cost more
	// than it overlaps.
	streamGrain = 512
)

// stream is one SampleSearch call in flight, kept in the Index between
// calls so that the fan-out allocates nothing: it is the Chunker the
// workers run and the Tap the sampler reports its picks to.
//
// Worker 0 runs the sampler, which publishes the pick count after every
// pick; the other workers claim picks in order and search each one as soon
// as it is published, sleeping when they catch up. When the sampler ends,
// worker 0 joins them on what is left; when it fails, it stops the count and
// the searchers return.
type stream struct {
	ix      *Index
	arch    sample.Arch
	quality float64
	n       int
	out     []int // the sampler's out, then its result
	t0      time.Time
	sampled time.Duration
	err     error

	// The search: k, and the top-k length (k capped at the level size).
	k, kk int
	nbr   []int

	// picks[i] is pick i's level index. The sampler writes it before it
	// publishes a count past i, and nobody writes it again in the call.
	picks   []int
	ready   parallel.Ready // picks final so far
	claimed atomic.Int64   // picks handed to searchers so far
}

// SampleSearch picks n points of the level and searches each pick's k
// nearest neighbors, overlapping the two: a second worker searches every
// pick as soon as the sampler has made it, and once the sampler ends the
// picks not yet searched fan out over all workers. The picks are FPS's for
// sample.ArchFPS, ApproxFPS's at quality for sample.ArchBucketFPS, and the
// stride sampler's (ApproxFPS at quality 0) for sample.ArchStride; nbr is
// what KNN with k returns for the picked points as queries, nil when k is
// 0. Both are index-identical to those calls in sequence, whatever the
// worker count: a pick is final once published, and a pick's row depends
// only on that pick and the frozen index.
//
// out is reused for the picks and nbrOut for the list, each like append.
// sampled is the sampler's wall time, the grid's build included; what the
// call took beyond it is the search the sampler did not hide.
func (ix *Index) SampleSearch(arch sample.Arch, quality float64, n, k int, out, nbrOut []int) (picks, nbr []int, sampled time.Duration, err error) {
	st := &ix.st
	st.t0 = time.Now()
	if k != 0 {
		if err := ix.check(k); err != nil {
			return nil, nil, 0, err
		}
	}
	ix.build()
	st.ix, st.arch, st.quality, st.n, st.out = ix, arch, quality, n, out
	st.k = 0
	workers := 1
	if k > 0 && n >= 1 && n <= len(ix.pts) {
		// An n the sampler rejects gets no search: it reports the error.
		st.k, st.kk = k, min(k, len(ix.pts))
		if cap(nbrOut) < n*k {
			nbrOut = make([]int, n*k)
		}
		st.nbr = nbrOut[:n*k]
		if cap(st.picks) < n {
			st.picks = make([]int, n)
		}
		st.picks = st.picks[:n]
		workers = min(parallel.WorkersFor(len(ix.pts), streamGrain), n)
		ix.grow(workers, st.kk)
		st.ready.Reset()
		st.claimed.Store(0)
		ix.fps.Tap = st
	}
	parallel.Split(workers, workers, st)
	ix.fps.Tap = nil
	picks, nbr, sampled, err = st.out, st.nbr, st.sampled, st.err
	st.out, st.nbr, st.err = nil, nil, nil // the caller's slices are not ours to keep
	if err != nil {
		return nil, nil, 0, err
	}
	return picks, nbr, sampled, nil
}

// sample runs the sampler arch names over the built index.
//
//edgepc:hotpath
func (ix *Index) sample(arch sample.Arch, quality float64, n int, out []int) ([]int, error) {
	var ids []int32
	if !ix.scan {
		ids = ix.perm
	}
	ix.fps.BucketSize = 0
	switch arch {
	case sample.ArchFPS:
		if ix.scan {
			// One bucket holding the whole level: the kernel's refresh is
			// then exact FPS's two linear passes per pick.
			ix.fps.BucketSize = len(ix.pts)
		}
		return ix.fps.ExactInto(ix.cols, ids, n, out)
	case sample.ArchStride:
		quality = 0
	}
	ix.fps.Frac = quality
	return ix.fps.OrderedInto(ix.cols, ids, n, out)
}

// Chunk runs worker w of a SampleSearch: the sampler first on worker 0, then
// searches on every worker until no pick is left.
//
//edgepc:hotpath
func (st *stream) Chunk(w, _ int) {
	if w == 0 {
		st.out, st.err = st.ix.sample(st.arch, st.quality, st.n, st.out)
		st.sampled = time.Since(st.t0)
		if st.k == 0 {
			return
		}
		if st.err != nil {
			st.ready.Stop()
			return
		}
		// A pure-stride call taps nothing: its picks are all made at once,
		// and no searcher has read past the published count.
		for i := st.ready.Count(); i < st.n; i++ {
			st.picks[i] = st.out[i]
		}
		st.ready.Publish(st.n)
	}
	if st.k == 0 {
		return
	}
	s := &st.ix.work[w]
	for {
		i := int(st.claimed.Add(1)) - 1
		if i >= st.n {
			return
		}
		if !st.ready.Await(i) {
			return // the sampler failed
		}
		st.row(i, s)
	}
}

// Picked publishes pick i: it is sample.Tap, called by the sampler on
// worker 0.
func (st *stream) Picked(i, id int) {
	st.picks[i] = id
	st.publish(i + 1)
}

// publish makes picks [0, c) visible to the searchers, and wakes the ones
// asleep every wakeEvery picks and at the last.
func (st *stream) publish(c int) {
	st.ready.Store(c)
	if c%wakeEvery == 0 || c == st.n {
		st.ready.Wake()
	}
}

// row writes pick i's neighbor list: KNN's row for that pick as the query.
//
//edgepc:hotpath
func (st *stream) row(i int, s *scratch) {
	ix := st.ix
	q := ix.pts[st.picks[i]]
	dst := st.nbr[i*st.k : (i+1)*st.k]
	idx, d := s.idx[:st.kk], s.d[:st.kk]
	ix.nearest(q, s, idx, d)
	writePadded(dst, idx)
}
