package serve

import "sync/atomic"

// The degradation ladder's thresholds (DESIGN.md §11): an enqueue that fills
// the queue to ladderHigh of its depth steps one tier down, and
// ladderHysteresis consecutive frames that finish with the queue at or below
// ladderLow of its depth step one back up. ladderHigh sits above the shed
// controller's shedHigh so the fleet sheds low-priority traffic before any
// engine degrades the traffic it kept.
const (
	ladderHigh       = 0.75
	ladderLow        = ladderHigh / 3
	ladderHysteresis = 4
)

// hysteresis is the level-with-hysteresis state machine the Ladder and the
// ShedController share. Level 0 is calm and top the deepest response: raise
// steps one level up at once; busy breaks the calm streak; calm counts one
// calm observation, and the hyst-th in a row steps one level down. Level
// moves are CAS-guarded, so concurrent observers of the same pressure move
// the level once. Each owner keeps its own thresholds and units and only
// tells the machine which of the three an observation was.
type hysteresis struct {
	top, hyst int32

	level  atomic.Int32
	streak atomic.Int32
	raises atomic.Uint64
	drops  atomic.Uint64
}

func (h *hysteresis) raise() {
	l := h.level.Load()
	if l >= h.top {
		return
	}
	if h.level.CompareAndSwap(l, l+1) {
		h.raises.Add(1)
		h.streak.Store(0)
	}
}

func (h *hysteresis) busy() { h.streak.Store(0) }

func (h *hysteresis) calm() {
	l := h.level.Load()
	if l == 0 {
		return
	}
	if h.streak.Add(1) < h.hyst {
		return
	}
	if h.level.CompareAndSwap(l, l-1) {
		h.drops.Add(1)
	}
	h.streak.Store(0)
}

// Ladder is the degradation-ladder state machine (DESIGN.md §11): tier 0 is
// full fidelity, each step down serves a cheaper rung. It holds no queue and
// no clock — callers report queue lengths — so serve.Engine and the loadgen
// simulator drive the identical code.
type Ladder struct {
	highN int // queue length that steps the ladder down
	lowN  int // queue length at or below which a finished frame counts as calm
	h     hysteresis
}

// NewLadder builds a ladder of tiers rungs over a queue of the given depth.
// The watermarks are integer queue lengths — at depth 3, 7 or 11 a float
// fill comparison would step one frame later.
func NewLadder(tiers, depth int) *Ladder {
	l := &Ladder{
		highN: int(float64(ladderHigh*float64(depth)) + 0.5),
		lowN:  int(ladderLow * float64(depth)),
	}
	if l.highN < 1 {
		l.highN = 1
	}
	l.h.top, l.h.hyst = int32(tiers-1), ladderHysteresis
	return l
}

// Enqueued observes the queue length right after a successful enqueue: at or
// past the high watermark the ladder steps one tier down, so workers start
// draining faster instead of the next submitter hitting a full queue.
func (l *Ladder) Enqueued(qlen int) {
	if qlen >= l.highN {
		l.h.raise()
	}
}

// Done observes the queue length after a frame finishes. The gap between
// the watermarks plus the consecutive-calm requirement keeps the ladder from
// oscillating when load hovers at a watermark.
func (l *Ladder) Done(qlen int) {
	if qlen > l.lowN {
		l.h.busy()
		return
	}
	l.h.calm()
}

// Tier is the current rung.
//
//edgepc:hotpath
func (l *Ladder) Tier() int { return int(l.h.level.Load()) }

// Steps counts the step-down and step-up (recovery) events so far.
func (l *Ladder) Steps() (downs, ups uint64) { return l.h.raises.Load(), l.h.drops.Load() }
