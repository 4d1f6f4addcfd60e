package serve

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/pipeline"
)

// ErrStalled reports a frame abandoned by the stall watchdog: its worker
// was stuck on one frame past Config.StallTimeout (a wedged forward pass, a
// hung allocator, injected faultinject.OpStall chaos), so the frame was
// failed in place rather than letting the requests — and, with a Rebuild
// hook, the pool slot — wedge forever. Stalls count toward the same
// circuit breaker as panics.
var ErrStalled = errors.New("serve: worker stalled")

// watchdog is the engine's stall detector, armed by Config.StallTimeout > 0:
// it periodically sweeps the pool slots and deposes any worker whose
// frame-start heartbeat is older than StallTimeout. Sweeps run at a quarter
// of the timeout so detection latency stays within ~1.25× StallTimeout.
// The only code it runs that is not the engine's own is the Rebuild hook,
// and depose contains a panic from it, so the sweep outlives one.
func (e *Engine) watchdog() {
	defer e.wg.Done()
	tick := e.cfg.StallTimeout / 4
	if tick <= 0 {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-e.closing:
			return
		case <-ticker.C:
		}
		cutoff := time.Now().Add(-e.cfg.StallTimeout).UnixNano()
		for i := range e.slots {
			w := e.slots[i].Load()
			if w == nil {
				continue // slot retired (respawn budget exhausted)
			}
			if b := w.beat.Load(); b == 0 || b > cutoff {
				continue // idle or making progress
			}
			e.depose(w)
		}
	}
}

// depose handles one wedged incarnation. With a Rebuild hook the slot is
// fully recovered: claim the incarnation (the deposed CAS — the same claim
// its own exit path uses, so exactly one side wins), fail its published
// frame with ErrStalled, release its wg slot on its behalf (Close must
// never wait out a goroutine that may be stuck forever), and respawn the
// slot with freshly rebuilt replicas — the wedged ones are unrecoverable,
// still pinned by the zombie goroutine. The stall counts toward the circuit
// breaker exactly like a panic streak: the replacement inherits the
// consecutive-failure count and parks before its first frame once the
// streak crosses PanicTrip. A Rebuild that panics is a failed rebuild:
// deposeRecover contains it, and the slot retires.
//
// Without a Rebuild hook the replicas cannot be replaced, so the watchdog
// only fails the frame in place — later sweeps lose the request's delivery
// CAS — and leaves the worker to unstick on its own: requests are unblocked
// either way, which is the contract that matters.
func (e *Engine) depose(w *worker) {
	if e.cfg.Rebuild == nil {
		e.failStalled(w)
		return
	}
	if !w.deposed.CompareAndSwap(false, true) {
		return // the incarnation exited (or was claimed) concurrently
	}
	defer e.wg.Done() // release the wedged incarnation's slot
	defer e.deposeRecover(w)
	e.failStalled(w)
	replaced := false
	if int(w.respawns.Load()) < maxRespawns {
		nets := make([]pipeline.Net, len(w.nets))
		ok := true
		for t := range nets {
			n, err := e.cfg.Rebuild(w.id, t)
			if err != nil || n == nil {
				ok = false
				break
			}
			nets[t] = n
		}
		if ok {
			nw := &worker{id: w.id, nets: nets}
			nw.consec.Store(w.consec.Load() + 1)
			nw.trips.Store(w.trips.Load())
			nw.respawns.Store(w.respawns.Load() + 1)
			if nw.consec.Load() >= int32(e.cfg.PanicTrip) {
				nw.consec.Store(0)
				nw.pendingTrip = true
			}
			e.respawns.Add(1)
			e.slots[w.id].Store(nw)
			e.wg.Add(1)
			go e.workerLoop(nw)
			replaced = true
		}
	}
	if !replaced {
		// Respawn budget exhausted or rebuild failed: retire the slot. The
		// remaining workers carry the pool; a retired slot stays visible in
		// Stats via the respawn/stall counters.
		e.slots[w.id].CompareAndSwap(w, nil)
	}
}

// deposeRecover is the watchdog goroutine's recover guard, around the one
// call it makes into code the engine does not own: a Rebuild hook that
// panics while w is deposed. The panic is recorded against w like any
// contained panic, the rebuild counts as failed and the slot retires; the
// watchdog keeps sweeping. The slot retires before the counter moves, so a
// reader that sees Panics move sees the slot retired.
func (e *Engine) deposeRecover(w *worker) {
	if v := recover(); v != nil {
		e.slots[w.id].CompareAndSwap(w, nil)
		e.notePanic(w.id, v)
		e.panics.Add(1)
	}
}

// failStalled fails the request the wedged worker published as its current
// frame, if any. Delivery goes through the request's CAS, so a zombie that
// unsticks and finishes the frame cannot double-complete it, and the stall
// counter moves only if this call claimed the request.
func (e *Engine) failStalled(w *worker) {
	r := w.live.Load()
	if r == nil {
		return
	}
	err := fmt.Errorf("%w: worker %d stuck past %v", ErrStalled, w.id, e.cfg.StallTimeout)
	r.deliver(Result{Err: err, Worker: w.id, Tier: e.ladder.Tier(), Wait: time.Since(r.enq), Total: time.Since(r.enq)}, &e.stalls)
}
