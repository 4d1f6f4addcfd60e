package serve

import "sync/atomic"

// Ladder is the degradation-ladder state machine (DESIGN.md §11): tier 0 is
// full fidelity, each step down serves a cheaper rung. An enqueue that fills
// the queue to the high watermark steps one tier down; Hysteresis consecutive
// frames that finish with the queue at or below the low watermark step one
// back up. It holds no queue and no clock — callers report queue lengths — so
// serve.Engine and the loadgen simulator drive the identical code. Tier moves
// are CAS-guarded: concurrent observers of the same pressure step once.
type Ladder struct {
	tiers int // rungs, tier 0 included
	highN int // queue length that steps the ladder down
	lowN  int // queue length at or below which a finished frame counts as calm
	hyst  int // consecutive calm frames per step up

	tier      atomic.Int32
	calm      atomic.Int32
	stepDowns atomic.Uint64
	stepUps   atomic.Uint64
}

// NewLadder builds a ladder of tiers rungs over a queue of the given depth.
// high and low are queue-fill fractions; out-of-range values select the
// defaults: high 0.75, low high/3, hysteresis 4.
func NewLadder(tiers, depth int, high, low float64, hysteresis int) *Ladder {
	if high <= 0 || high > 1 {
		high = 0.75
	}
	if low <= 0 || low >= high {
		low = high / 3
	}
	if hysteresis <= 0 {
		hysteresis = 4
	}
	l := &Ladder{
		tiers: tiers,
		highN: int(float64(high*float64(depth)) + 0.5),
		lowN:  int(low * float64(depth)),
		hyst:  hysteresis,
	}
	if l.highN < 1 {
		l.highN = 1
	}
	return l
}

// Enqueued observes the queue length right after a successful enqueue: at or
// past the high watermark the ladder steps one tier down, so workers start
// draining faster instead of the next submitter hitting a full queue.
func (l *Ladder) Enqueued(qlen int) {
	if qlen < l.highN {
		return
	}
	t := l.tier.Load()
	if int(t) >= l.tiers-1 {
		return
	}
	if l.tier.CompareAndSwap(t, t+1) {
		l.stepDowns.Add(1)
		l.calm.Store(0)
	}
}

// Done observes the queue length after a frame finishes. The gap between
// the watermarks plus the consecutive-calm requirement keeps the ladder from
// oscillating when load hovers at a watermark.
func (l *Ladder) Done(qlen int) {
	if qlen > l.lowN {
		l.calm.Store(0)
		return
	}
	t := l.tier.Load()
	if t == 0 {
		return
	}
	if int(l.calm.Add(1)) < l.hyst {
		return
	}
	if l.tier.CompareAndSwap(t, t-1) {
		l.stepUps.Add(1)
	}
	l.calm.Store(0)
}

// Tier is the current rung.
//
//edgepc:hotpath
func (l *Ladder) Tier() int { return int(l.tier.Load()) }

// Steps counts the step-down and step-up (recovery) events so far.
func (l *Ladder) Steps() (downs, ups uint64) { return l.stepDowns.Load(), l.stepUps.Load() }
