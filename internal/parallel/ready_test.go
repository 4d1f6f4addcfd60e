package parallel

import (
	"runtime"
	"sync"
	"testing"
)

// TestReadyHandsItemsOver: consumers each wait for one item of a producer
// that writes items in order and publishes after each, with wake-ups
// batched as SampleSearch batches them; every consumer reads its item's
// final value, and none is left asleep.
func TestReadyHandsItemsOver(t *testing.T) {
	const n, consumers = 2000, 4
	var r Ready
	for round := 0; round < 3; round++ {
		items := make([]int, n)
		r.Reset()
		var wg sync.WaitGroup
		bad := make([]int, consumers)
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := c; i < n; i += consumers {
					if !r.Await(i) || items[i] != i+1 {
						bad[c]++
					}
				}
			}(c)
		}
		for i := range items {
			items[i] = i + 1
			if i%16 == 15 {
				r.Publish(i + 1)
			} else {
				r.Store(i + 1)
			}
		}
		r.Publish(n)
		wg.Wait()
		for c, b := range bad {
			if b != 0 {
				t.Fatalf("round %d: consumer %d read %d items unpublished or stale", round, c, b)
			}
		}
		if w := r.waiting.Load(); w != 0 || r.Count() != n {
			t.Fatalf("round %d: %d consumers left asleep, count %d", round, w, r.Count())
		}
	}
}

// TestReadyStopWakesWaiters: a producer that stops early wakes every
// consumer waiting on an item it never made final, and Await reports
// false for those items and true for the ones it did.
func TestReadyStopWakesWaiters(t *testing.T) {
	var r Ready
	r.Reset()
	r.Publish(3)
	got := make([]bool, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = r.Await(i)
		}(i)
	}
	// Stop only once the five consumers of items 3–7 are asleep.
	for r.waiting.Load() < 5 {
		runtime.Gosched()
	}
	r.Stop()
	wg.Wait()
	for i, ok := range got {
		if ok != (i < 3) {
			t.Fatalf("Await(%d) = %v after stopping at 3", i, ok)
		}
	}
	if w := r.waiting.Load(); w != 0 {
		t.Fatalf("%d consumers left asleep", w)
	}
	r.Reset()
	if r.Count() != 0 || r.stopped.Load() {
		t.Fatal("Reset left the last run's count or stop behind")
	}
}
