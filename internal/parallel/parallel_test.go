package parallel

import (
	"bytes"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestForChunksCoversRange(t *testing.T) {
	for _, n := range []int{0, 1, 5, 4096} {
		covered := make([]int32, n)
		ForChunks(n, func(lo, hi int) {
			if lo < 0 || hi > n || lo > hi {
				t.Errorf("bad chunk [%d,%d) for n=%d", lo, hi, n)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

func TestParallelPathsWithMultipleWorkers(t *testing.T) {
	// Single-CPU machines never take the goroutine paths at the default
	// GOMAXPROCS; force a multi-worker setting to exercise them.
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	const n = 10000
	var chunks int64
	covered := make([]int32, n)
	ForChunks(n, func(lo, hi int) {
		atomic.AddInt64(&chunks, 1)
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&covered[i], 1)
		}
	})
	if chunks < 2 {
		t.Fatalf("ForChunks(%d) ran %d chunk(s) with GOMAXPROCS=4, want a fan-out", n, chunks)
	}
	for i, c := range covered {
		if c != 1 {
			t.Fatalf("chunked index %d covered %d times", i, c)
		}
	}
	if w := Workers(n); w < 2 {
		t.Fatalf("Workers(%d) = %d with GOMAXPROCS=4", n, w)
	}
}

// TestForChunksEdgeCases pins the clamp ordering: n = 0 must return before
// the worker clamp (workers > n would otherwise clamp to 0 and divide by
// zero), n = 1 and sub-threshold n must run serially as a single chunk, and
// crossing minParallelWork must still cover every index exactly once.
func TestForChunksEdgeCases(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	t.Run("n=0", func(t *testing.T) {
		called := false
		ForChunks(0, func(lo, hi int) { called = true })
		if called {
			t.Fatal("body called for n=0")
		}
	})
	for _, n := range []int{1, minParallelWork - 1} {
		calls := 0
		ForChunks(n, func(lo, hi int) {
			calls++
			if lo != 0 || hi != n {
				t.Fatalf("n=%d: serial chunk [%d,%d)", n, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("n=%d: %d chunks below threshold, want 1", n, calls)
		}
	}
	for _, n := range []int{minParallelWork, minParallelWork + 1} {
		covered := make([]int32, n)
		ForChunks(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("n=%d: index %d covered %d times", n, i, c)
			}
		}
	}
}

func TestForWorkersCoversRangeWithDistinctSlots(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	t.Run("n=0", func(t *testing.T) {
		ForWorkers(0, func(w, lo, hi int) { t.Error("body called for n=0") })
	})
	t.Run("serial", func(t *testing.T) {
		calls := 0
		ForWorkers(5, func(w, lo, hi int) {
			calls++
			if w != 0 || lo != 0 || hi != 5 {
				t.Fatalf("serial call (%d, %d, %d)", w, lo, hi)
			}
		})
		if calls != 1 {
			t.Fatalf("%d serial calls", calls)
		}
	})
	t.Run("parallel", func(t *testing.T) {
		n := 3*minParallelWork + 5
		workers := Workers(n)
		if workers < 2 {
			t.Fatalf("Workers(%d) = %d with GOMAXPROCS=4", n, workers)
		}
		covered := make([]int32, n)
		slotUsed := make([]int32, workers)
		ForWorkers(n, func(w, lo, hi int) {
			if w < 0 || w >= workers {
				t.Errorf("worker slot %d out of [0,%d)", w, workers)
				return
			}
			if atomic.AddInt32(&slotUsed[w], 1) != 1 {
				t.Errorf("worker slot %d used twice", w)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&covered[i], 1)
			}
		})
		for i, c := range covered {
			if c != 1 {
				t.Fatalf("index %d covered %d times", i, c)
			}
		}
	})
}

func TestWorkers(t *testing.T) {
	if w := Workers(10); w != 1 {
		t.Fatalf("Workers(10) = %d, want 1 (below parallel threshold)", w)
	}
	if w := Workers(1 << 20); w < 1 {
		t.Fatalf("Workers(1M) = %d", w)
	}
}

// goroutineID reads the calling goroutine's id from its stack header
// ("goroutine 12 [running]:"), the only handle the runtime gives a test.
func goroutineID() string {
	buf := make([]byte, 64)
	return string(bytes.Fields(buf[:runtime.Stack(buf, false)])[1])
}

// TestForSplitCallerRunsChunkZero pins the fan-out's shape over a grid of
// lengths and worker counts (more workers than indexes, ragged last chunk,
// GOMAXPROCS below and above the worker count): every index is covered
// exactly once, by at most `workers` contiguous chunks, and chunk 0 — only
// chunk 0 — runs on the calling goroutine.
func TestForSplitCallerRunsChunkZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 2, 3, 7, 8, 9, 64, 1000} {
			for _, workers := range []int{-1, 0, 1, 2, 3, 4, 8, 1001} {
				caller := goroutineID()
				covered := make([]int32, n)
				var chunks, onCaller int32
				ForSplit(n, workers, func(lo, hi int) {
					atomic.AddInt32(&chunks, 1)
					if lo < 0 || hi > n || lo >= hi {
						t.Errorf("n=%d workers=%d: bad chunk [%d,%d)", n, workers, lo, hi)
						return
					}
					if on := goroutineID() == caller; on != (lo == 0) {
						t.Errorf("n=%d workers=%d: chunk [%d,%d) on the caller's goroutine: %v", n, workers, lo, hi, on)
					} else if on {
						atomic.AddInt32(&onCaller, 1)
					}
					for i := lo; i < hi; i++ {
						atomic.AddInt32(&covered[i], 1)
					}
				})
				for i, c := range covered {
					if c != 1 {
						t.Fatalf("n=%d workers=%d: index %d covered %d times", n, workers, i, c)
					}
				}
				if most := int32(max(1, min(workers, n))); chunks > most || onCaller != 1 {
					t.Fatalf("n=%d workers=%d: %d chunks (at most %d), %d on the caller (want 1)", n, workers, chunks, most, onCaller)
				}
			}
		}
	}
}

// TestForWorkersCallerRunsSlotZero is the same contract for ForWorkers, plus
// its own: slots are dense from 0, each used once, slot w covers the w-th
// chunk, and slot 0 is the caller's.
func TestForWorkersCallerRunsSlotZero(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, minParallelWork - 1, minParallelWork, minParallelWork + 1, 3*minParallelWork + 5} {
			workers := Workers(n)
			caller := goroutineID()
			covered := make([]int32, n)
			los := make([]int64, workers)
			used := make([]int32, workers)
			ForWorkers(n, func(w, lo, hi int) {
				if w < 0 || w >= workers {
					t.Errorf("n=%d GOMAXPROCS=%d: slot %d out of [0,%d)", n, procs, w, workers)
					return
				}
				if atomic.AddInt32(&used[w], 1) != 1 {
					t.Errorf("n=%d GOMAXPROCS=%d: slot %d used twice", n, procs, w)
				}
				if on := goroutineID() == caller; on != (w == 0) {
					t.Errorf("n=%d GOMAXPROCS=%d: slot %d on the caller's goroutine: %v", n, procs, w, on)
				}
				atomic.StoreInt64(&los[w], int64(lo))
				for i := lo; i < hi; i++ {
					atomic.AddInt32(&covered[i], 1)
				}
			})
			for i, c := range covered {
				if c != 1 {
					t.Fatalf("n=%d GOMAXPROCS=%d: index %d covered %d times", n, procs, i, c)
				}
			}
			// Dense: the used slots are a prefix, and their chunks ascend.
			for w := 1; w < workers; w++ {
				if used[w] == 1 && (used[w-1] != 1 || los[w] <= los[w-1]) {
					t.Fatalf("n=%d GOMAXPROCS=%d: slots %v start at %v", n, procs, used, los)
				}
			}
		}
	}
}

// TestWorkersFor pins the work-sized worker count: work/grain, at least one,
// at most GOMAXPROCS.
func TestWorkersFor(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, c := range []struct{ work, grain, want int }{
		{0, 100, 1}, {99, 100, 1}, {199, 100, 1}, {200, 100, 2}, {399, 100, 3}, {400, 100, 4}, {1 << 30, 100, 4},
	} {
		if got := WorkersFor(c.work, c.grain); got != c.want {
			t.Fatalf("WorkersFor(%d, %d) = %d, want %d", c.work, c.grain, got, c.want)
		}
	}
	runtime.GOMAXPROCS(1)
	if got := WorkersFor(1<<30, 1); got != 1 {
		t.Fatalf("WorkersFor on one core = %d", got)
	}
}

// TestFanOutSteadyStateAllocations caps a fan-out's own allocations: the
// goroutine closures (the WaitGroup is pooled); the body closure here
// captures nothing, so it is static.
func TestFanOutSteadyStateAllocations(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	body := func(lo, hi int) {}
	ForSplit(64, 4, body)
	if got := testing.AllocsPerRun(200, func() { ForSplit(64, 4, body) }); got > 3 {
		t.Fatalf("ForSplit over 4 workers: %v allocations, want 3 (one per started goroutine)", got)
	}
	if got := testing.AllocsPerRun(200, func() { ForSplit(64, 1, body) }); got != 0 {
		t.Fatalf("ForSplit inline: %v allocations", got)
	}
}

// counter is a kept Chunker: it counts the visits of every index.
type counter struct{ seen []int32 }

func (c *counter) Chunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		atomic.AddInt32(&c.seen[i], 1)
	}
}

// TestSplitCoversRangeWithoutAllocating is Split's contract: ForSplit's
// chunks, each index once, and no allocation of its own once its team is
// pooled — the goroutines included.
func TestSplitCoversRangeWithoutAllocating(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for _, s := range []struct{ n, workers int }{{0, 4}, {1, 4}, {5, 1}, {7, 3}, {64, 4}, {1000, 8}} {
		c := &counter{seen: make([]int32, s.n)}
		Split(s.n, s.workers, c)
		for i, v := range c.seen {
			if v != 1 {
				t.Fatalf("Split(%d, %d): index %d visited %d times", s.n, s.workers, i, v)
			}
		}
	}
	c := &counter{seen: make([]int32, 64)}
	if got := testing.AllocsPerRun(200, func() { Split(64, 4, c) }); got != 0 {
		t.Fatalf("Split over 4 workers: %v allocations, want 0", got)
	}
}
