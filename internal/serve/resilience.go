package serve

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// ErrPanic reports a frame whose forward pass panicked inside a worker. The
// panic is contained: the request fails with this error (wrapped with the
// panic value), the worker's replica is quarantined and rebuilt, and serving
// continues. The captured stack is available via Stats().LastPanic.
var ErrPanic = errors.New("serve: worker panicked")

// failRequest delivers a failure for a request that has not yet received a
// result. The deliver CAS makes it safe to call from recover paths and
// concurrently with the stall watchdog: whoever claims the request first
// wins, so the cap-1 reply channel can never wedge on a second send.
func (e *Engine) failRequest(w *worker, r *request, tier int, err error) {
	if r == nil {
		return
	}
	r.deliver(Result{Err: err, Worker: w.id, Tier: tier, Wait: time.Since(r.enq), Total: time.Since(r.enq)})
}

// notePanic records the most recent panic's worker, value and stack for
// Stats. Only the latest is kept: the counter says how many, the capture
// says what the last one looked like. A panic a forward pass recovered on
// another goroutine and raised again carries the stack it was recovered on.
func (e *Engine) notePanic(workerID int, v any) {
	stack := debug.Stack()
	if s, ok := v.(interface{ Stack() []byte }); ok {
		stack = s.Stack()
	}
	e.panicMu.Lock()
	e.lastPanic = fmt.Sprintf("worker %d: %v\n%s", workerID, v, stack)
	e.panicMu.Unlock()
}

// quarantine retires a worker's replica after a panic: a forward pass that
// died mid-frame may have left the replica's workspace views, layer caches
// or reuse cache in an inconsistent state, and the next frame would compute
// garbage (or panic again) on top of it. The replacement is rebuilt from the
// shared parameters via Config.Rebuild (pipeline.RebuildReplica); without a
// hook — or if the rebuild itself fails — the old replica stays, which is
// still safe for process liveness, just not for cache hygiene.
func (e *Engine) quarantine(w *worker, tier int) {
	e.quarantines.Add(1)
	if e.cfg.Rebuild == nil {
		return
	}
	n, err := e.cfg.Rebuild(w.id, tier)
	if err != nil || n == nil {
		return
	}
	w.nets[tier] = n
}

// The worker circuit breaker: breakerTrip consecutive failed frames (panics
// and stall deposals alike) park the worker for a jittered doubling of
// breakerBase per consecutive trip, capped at breakerMax.
const (
	breakerTrip = 3
	breakerBase = 100 * time.Millisecond
	breakerMax  = 5 * time.Second
)

// trip parks the worker for the circuit-breaker backoff: breakerTrip
// consecutive failures mean the problem is not frame-local (poisoned
// weights, a deterministic bug, injected chaos), and hammering the replica
// with fresh requests at full rate just burns rebuilds. The park doubles
// per consecutive trip with seeded jitter — see breakerBackoff — and is
// interrupted immediately by Close so a draining engine never waits out a
// backoff.
func (e *Engine) trip(w *worker) {
	e.trips.Add(1)
	d := breakerBackoff(breakerBase, breakerMax, int(w.trips.Load()), backoffJitterSeed, w.id)
	w.trips.Add(1)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-e.closing:
	}
}

// backoffJitterSeed seeds the breaker-backoff jitter: a fixed seed
// reproduces exact park schedules (TestBreakerBackoffJitterPinned).
const backoffJitterSeed = 1

// breakerBackoff is the park duration for a worker's trip-th consecutive
// breaker trip: the jittered doubling of jitteredBackoff keyed by worker, so
// workers tripped by one fault storm do not re-probe in lockstep.
func breakerBackoff(base, max time.Duration, trip int, seed uint64, worker int) time.Duration {
	return jitteredBackoff(base, max, trip, seed, uint64(worker+1))
}

// jitteredBackoff is the one exponential backoff of the serving stack — the
// worker circuit breaker's park and the router's retry wait: base<<n capped
// at max, then deterministically jittered into [d/2, d) by a SplitMix64 hash
// of (seed, id, n). Pure doubling would release every waiter of one fault
// storm at the same instant — a synchronized herd that fails again in
// lockstep; the jitter decorrelates the herd (id is the worker or the
// submission) while a fixed seed keeps the exact schedule reproducible in
// tests.
func jitteredBackoff(base, max time.Duration, n int, seed, id uint64) time.Duration {
	shift := n
	if shift > 20 {
		shift = 20
	}
	d := base << shift
	if d <= 0 || d > max {
		d = max
	}
	h := Mix64(seed ^ id*0x9e3779b97f4a7c15 ^ uint64(n+1)*0xda942042e4dd58b5)
	half := d / 2
	return half + time.Duration(float64(h>>11)/(1<<53)*float64(half))
}

// maxRespawns bounds worker resurrection (lastResort and the stall
// watchdog alike): a slot lineage that re-dies this many times in a row —
// the streak resets on any clean frame — has a failure the recover
// wrappers cannot contain, and respawning it forever would spin.
const maxRespawns = 8

// lastResort is the outermost guard on a worker goroutine: endFrame
// contains per-frame panics, so any panic arriving here escaped the
// engine's own machinery (a panic in the resilience code itself, such as a
// Rebuild hook during quarantine). It fails the frame in flight, then
// respawns the pool slot with a fresh worker incarnation so the pool keeps
// its capacity — bounded by maxRespawns to avoid a crash-loop. Deliberately minimal: no
// rebuild, no breaker, just "do not take the process down and do not lose
// requests".
//
// It is also every incarnation's exit path: the deposed CAS decides who
// balances the goroutine's wg slot. If the stall watchdog already claimed
// (deposed) this incarnation, it also ran wg.Done on its behalf — Close
// must never wait on a wedged goroutine — and respawned the slot, so a
// late-unsticking zombie must do nothing here, especially not respawn a
// second worker into the slot.
func (e *Engine) lastResort(w *worker) {
	v := recover()
	if !w.deposed.CompareAndSwap(false, true) {
		return // deposed by the watchdog: slot already released + respawned
	}
	defer e.wg.Done()
	if v == nil {
		return
	}
	e.panics.Add(1)
	e.notePanic(w.id, v)
	err := fmt.Errorf("%w: worker %d (outside frame execution): %v", ErrPanic, w.id, v)
	e.failRequest(w, w.live.Load(), e.ladder.Tier(), err)
	if int(w.respawns.Load()) >= maxRespawns {
		e.slots[w.id].CompareAndSwap(w, nil) // retire the slot for the watchdog
		return
	}
	// Same replicas and trace (no rebuild here: the goroutine that used them
	// is gone), breaker streak carried over as it stands.
	e.respawn(w, w.nets, w.trace, w.consec.Load())
}

// respawn starts the next incarnation of w's pool slot on nets and trace —
// the one respawn path of lastResort and the stall watchdog's depose. The
// incarnation starts with fresh deposed/heartbeat state and inherits the
// lineage's breaker state: consec consecutive failures (one that reaches the
// trip count makes it park before its first frame), w's trip count, and one
// more spent respawn.
func (e *Engine) respawn(w *worker, nets []pipeline.Net, trace model.Trace, consec int32) {
	nw := &worker{id: w.id, nets: nets, trace: trace}
	if consec >= e.tripAt {
		consec, nw.pendingTrip = 0, true
	}
	nw.consec.Store(consec)
	nw.trips.Store(w.trips.Load())
	nw.respawns.Store(w.respawns.Load() + 1)
	e.respawns.Add(1)
	e.slots[w.id].Store(nw)
	e.wg.Add(1)
	go e.workerLoop(nw)
}
