// Package parallel provides small helpers for data-parallel loops.
//
// The EdgePC kernels (Morton code generation, uniform index sampling,
// window-based neighbor search) are "fully parallel" in the paper's terms:
// every iteration is independent. On the GPU these map to one CUDA thread per
// point; here they map onto a goroutine worker pool sized to GOMAXPROCS.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelWork is the smallest slice length worth spawning goroutines for.
// Below this, scheduling overhead dominates and we run serially.
const minParallelWork = 2048

// For runs body(i) for every i in [0, n) using up to GOMAXPROCS workers.
// Iterations must be independent. For small n the loop runs serially.
func For(n int, body func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	if n < minParallelWork || workers <= 1 {
		for i := 0; i < n; i++ {
			body(i)
		}
		return
	}
	ForChunks(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			body(i)
		}
	})
}

// ForChunks splits [0, n) into contiguous chunks, one per worker, and runs
// body(lo, hi) on each chunk concurrently. Chunked iteration amortizes the
// per-call overhead when the body is only a few instructions (e.g. one Morton
// encode per point).
func ForChunks(n int, body func(lo, hi int)) {
	ForSplit(n, Workers(n), body)
}

// ForSplit splits [0, n) into at most workers contiguous chunks and runs
// body(lo, hi) on each concurrently; workers <= 1 runs body(0, n) inline.
// For callers where the work per index, not n, decides whether goroutines
// pay (tensor.MatMulATInto: few output rows, each a long reduction; the
// shared-MLP kernels: WorkersFor). Chunk 0 runs on the calling goroutine, so
// a split over w workers starts w-1 goroutines. A hot caller should test its
// worker count before it builds the closure: body escapes, so a capturing
// closure is a heap allocation even when it would run inline — or keep a
// Chunker and call Split.
func ForSplit(n, workers int, body func(lo, hi int)) {
	Split(n, workers, chunkFunc(body))
}

// Chunker is a fan-out body: Chunk(lo, hi) handles the indexes [lo, hi).
// A caller that keeps one (a pointer to a reused struct) fans out through
// Split without allocating.
type Chunker interface{ Chunk(lo, hi int) }

// chunkFunc makes ForSplit's body a Chunker. A func value is one pointer, so
// the conversion to the interface allocates nothing.
type chunkFunc func(lo, hi int)

func (f chunkFunc) Chunk(lo, hi int) { f(lo, hi) }

// Split is ForSplit over a Chunker, and it allocates nothing itself: the
// goroutines start from a pooled team whose start function is bound once,
// and each claims the next chunk. Which goroutine runs a chunk is a matter of
// scheduling; the chunk boundaries are ForSplit's.
func Split(n, workers int, c Chunker) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		c.Chunk(0, n)
		return
	}
	t := teams.Get().(*team)
	t.c, t.n, t.chunk = c, n, (n+workers-1)/workers
	t.claimed.Store(0)
	for lo := t.chunk; lo < n; lo += t.chunk {
		t.wg.Add(1)
		go t.start()
	}
	// Yield once before chunk 0. The last goroutine started sits in this P's
	// runnext slot, and an idle P steals from there only after a sleep (3 µs
	// asked, 50–70 µs got on Linux) while this P is busy — so a two-way split
	// of a 200 µs kernel finished no sooner than the serial loop. Yielding
	// lets this P start that goroutine now and puts the caller on the global
	// queue, which an idle P polls without the sleep: the placement of
	// starting every chunk and blocking, for one goroutine fewer.
	runtime.Gosched()
	c.Chunk(0, t.chunk)
	t.wg.Wait()
	t.c = nil
	teams.Put(t)
}

// team is one Split in flight. A `go` statement with arguments, or with a
// capturing closure, allocates the closure it starts; `go t.start()` calls a
// func value bound at the team's creation and passes nothing.
type team struct {
	c        Chunker
	n, chunk int
	claimed  atomic.Int64 // chunks after chunk 0 handed to goroutines
	wg       sync.WaitGroup
	start    func() // t.run
}

func (t *team) run() {
	defer t.wg.Done()
	lo := int(t.claimed.Add(1)) * t.chunk
	t.c.Chunk(lo, min(lo+t.chunk, t.n))
}

var teams = sync.Pool{New: func() any {
	t := new(team)
	t.start = t.run
	return t
}}

// ForWorkers splits [0, n) into one contiguous chunk per worker — exactly
// the split Workers(n) reports — and runs body(worker, lo, hi) concurrently,
// slot 0 on the calling goroutine (it is a ForSplit).
// Unlike ForChunks, the body learns which worker slot it occupies, so callers
// can give every worker a private accumulator sized by Workers(n) and reduce
// after the call returns (experiments.parCoverRadius's maxima). Worker
// indexes are dense in [0, Workers(n)), though for some n the trailing slots
// go unused (ceil division can cover n with fewer chunks). For a fixed n and
// GOMAXPROCS the chunk boundaries are deterministic, so two consecutive
// ForWorkers calls see identical (worker, lo, hi) triples.
func ForWorkers(n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	workers := Workers(n)
	if workers <= 1 {
		body(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers // ForSplit's, as workers <= n
	ForSplit(n, workers, func(lo, hi int) { body(lo/chunk, lo, hi) })
}

// Workers reports the number of workers For would use for a loop of length n.
// Exposed so the edge-device cost model can charge the same parallel split
// the real code executes.
func Workers(n int) int {
	w := runtime.GOMAXPROCS(0)
	if n < minParallelWork {
		return 1
	}
	if w > n {
		w = n
	}
	return w
}

// WorkersFor reports how many goroutines pay for a loop of work elementary
// operations (multiply-adds of a GEMM, elements of a sweep) when each should
// take at least grain of them: work/grain, within [1, GOMAXPROCS]. Workers
// decides by index count alone, which leaves a 1024-row GEMM of 13 MFLOP on
// one core. The result goes to ForSplit, which caps it at the index count.
func WorkersFor(work, grain int) int {
	return max(1, min(work/grain, runtime.GOMAXPROCS(0)))
}
