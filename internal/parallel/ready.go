package parallel

import (
	"sync"
	"sync/atomic"
)

// Ready is the hand-off from one producer that finishes items in order to
// consumers that each wait for one item: the count of items that are final.
// A consumer that finds its item final goes on after one atomic load; one
// that does not sleeps until the producer publishes past it or stops. The
// producer writes an item before it publishes a count past it, and a
// consumer reads the item only after Await has returned true (release /
// acquire through the count).
//
// spatial's SampleSearch hands picks from its sampler to its searchers
// through one; a PointNet++ frame hands plan entries from its planner to the
// feature pass through another.
type Ready struct {
	n       atomic.Int64 // items [0, n) are final
	stopped atomic.Bool  // the producer ended early
	waiting atomic.Int32 // consumers asleep on wake
	mu      sync.Mutex
	wake    sync.Cond
}

// Reset starts a new run of items, none final. It must not overlap any
// other call on r.
func (r *Ready) Reset() {
	if r.wake.L == nil {
		r.wake.L = &r.mu
	}
	r.n.Store(0)
	r.stopped.Store(false)
}

// Store makes items [0, c) final without waking a consumer asleep: a
// producer that batches its wake-ups calls Wake or Publish later.
func (r *Ready) Store(c int) { r.n.Store(int64(c)) }

// Count returns how many items are final.
func (r *Ready) Count() int { return int(r.n.Load()) }

// Publish makes items [0, c) final and wakes the consumers asleep.
func (r *Ready) Publish(c int) {
	r.n.Store(int64(c))
	r.Wake()
}

// Wake wakes the consumers asleep, if there are any.
func (r *Ready) Wake() {
	// A consumer counts itself in waiting before it reads the count, and
	// this reads waiting after the producer's store, so either it sees the
	// new count or this sees it waiting (the atomics are sequentially
	// consistent).
	if r.waiting.Load() > 0 {
		r.mu.Lock()
		r.wake.Broadcast()
		r.mu.Unlock()
	}
}

// Stop ends the run early: a consumer waiting on an item that is not final
// wakes, and Await reports false for every such item from now on.
func (r *Ready) Stop() {
	r.stopped.Store(true)
	r.mu.Lock()
	r.wake.Broadcast()
	r.mu.Unlock()
}

// Await blocks until item i is final and reports true, or reports false
// once the producer has stopped without making it final.
func (r *Ready) Await(i int) bool {
	if r.n.Load() > int64(i) {
		return true
	}
	return r.sleep(i)
}

func (r *Ready) sleep(i int) bool {
	r.mu.Lock()
	r.waiting.Add(1)
	for r.n.Load() <= int64(i) && !r.stopped.Load() {
		r.wake.Wait()
	}
	r.waiting.Add(-1)
	r.mu.Unlock()
	return r.n.Load() > int64(i)
}
