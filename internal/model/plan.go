package model

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"

	"repro/internal/geom"
	"repro/internal/parallel"
	"repro/internal/sample"
	"repro/internal/spatial"
)

// A PointNet++ frame is two dependent chains. Sampling, neighbor search and
// the FP interpolation plans read only coordinates, so they are a function
// of the (structurized) cloud and the config alone: the coordinate chain.
// Grouping, the shared MLPs and the head read features, and each of their
// steps needs one coordinate entry: the feature chain. The planner runs the
// first into a plan, entry by entry in the order the feature pass consumes
// them (SA0 … SA(D−1), then FP0 … FP(D−1)), and publishes each entry when it
// is final; the feature pass waits only for an entry that is not ready yet.
// On more than one core the two chains run side by side (Graph.Forward).

// planGrain is the cloud size from which the planner runs ahead on a second
// core; below it the planner runs inline, before the feature pass. Measured
// on a 2-core Xeon (go1.24.0, W1 S+N at width 16, median of 300 frames, two
// runs each, inline → run-ahead): 512 points 0.65 / 0.45 → 0.54 / 0.47 ms,
// 1024 points 1.36 / 1.31 → 1.56 / 1.52 ms, 2048 points 3.15 / 2.78 →
// 1.94 / 2.02 ms, 4096 points 6.2 / 5.6 → 4.4 / 4.4 ms. Under 2048 points
// the levels below the first are too small to hide the hand-offs' wake-ups.
// (A Baseline frame of 1024 points does gain, 2.9 → 2.3 ms, while an S+N one
// loses; and where a server is saturated, every core already serves a frame
// of its own.)
const planGrain = 2048

// errChainPanicked stops a feature pass whose planner panicked; the panic
// itself is raised again on Forward's caller.
var errChainPanicked = errors.New("model: coordinate planner panicked")

// plan is a PointNet++ graph's coordinate chain, kept across frames: every
// buffer is reused, and one spatial index per level stays resident, so the
// FP 3-NN on a level reuses the grid its SA module built.
type plan struct {
	sa []*SAModule
	fp []*FPModule

	levels  []planLevel // levels[0] is the input; SA l fills levels[l+1]
	saPlans []saPlan
	fpPlans []fpPlan
	ready   parallel.Ready // entries final so far; stopped on the planner's error
	err     error          // why the planner stopped
}

// planLevel is one resolution's coordinates.
type planLevel struct {
	pts          []geom.Point3
	mortonSorted bool
	// posInParent holds each point's index in the parent level (ascending
	// when both levels are Morton-sorted); nil at level 0.
	posInParent []int
	index       spatial.Index // bound to pts; the first exact query builds it
	ptsBuf      []geom.Point3 // backs pts at levels ≥ 1
}

// saPlan is SA module l's entry: its neighbor list into level l and the
// planner's two records.
type saPlan struct {
	nbr              []int
	k                int
	sample, neighbor StageRecord
}

// fpPlan is FP module i's entry: its interpolation plan and record.
type fpPlan struct {
	interp sample.InterpPlan
	rec    StageRecord
}

func newPlan(sa []*SAModule, fp []*FPModule) *plan {
	return &plan{
		sa:      sa,
		fp:      fp,
		levels:  make([]planLevel, len(sa)+1),
		saPlans: make([]saPlan, len(sa)),
		fpPlans: make([]fpPlan, len(fp)),
	}
}

// reset binds a frame's input level. It runs before the chains start.
func (p *plan) reset(pts []geom.Point3, sorted bool) {
	lv := &p.levels[0]
	lv.pts, lv.mortonSorted, lv.posInParent = pts, sorted, nil
	lv.index.Reset(pts)
	p.ready.Reset()
	p.err = nil
}

// run is the planner: every module's coordinate half, in the feature pass's
// order, each entry published as soon as it is final.
func (p *plan) run() {
	for l, m := range p.sa {
		if err := m.plan(p, l); err != nil {
			p.stop(err)
			return
		}
		p.ready.Publish(l + 1)
	}
	for i, m := range p.fp {
		if err := m.plan(p, i); err != nil {
			p.stop(err)
			return
		}
		p.ready.Publish(len(p.sa) + i + 1)
	}
}

// stop ends the planner early: err is what a feature pass waiting on an
// entry never published returns.
func (p *plan) stop(err error) {
	p.err = err
	p.ready.Stop()
}

// await blocks until entry e is final, or returns the planner's error if it
// stopped before publishing e.
func (p *plan) await(e int) error {
	if !p.ready.Await(e) {
		return p.err
	}
	return nil
}

// saEntry waits for SA module l's entry.
func (p *plan) saEntry(l int) (*saPlan, error) {
	if err := p.await(l); err != nil {
		return nil, err
	}
	return &p.saPlans[l], nil
}

// fpEntry waits for FP module i's entry.
func (p *plan) fpEntry(i int) (*fpPlan, error) {
	if err := p.await(len(p.sa) + i); err != nil {
		return nil, err
	}
	return &p.fpPlans[i], nil
}

// chains is a planned frame's fan-out body, kept by the Graph so that the
// hand-off allocates nothing: index 0 is the planner, index 1 the feature
// pass. Over two workers they run side by side; over one, in that order.
type chains struct {
	g        *Graph
	err      error // the feature pass's
	panicked chainPanics
}

// chainPanics holds a panic each of two chains recovered when they ran side
// by side, by chunk start, to be raised again on the caller once both are
// done.
type chainPanics [2]*chainPanic

// keep records v, recovered on chain slot, with the stack it was recovered
// on.
func (p *chainPanics) keep(slot int, v any) {
	p[slot] = &chainPanic{value: v, stack: debug.Stack()}
}

// repanic raises a panic a chain recovered, on the caller.
func (p *chainPanics) repanic() {
	for i, c := range p {
		if c != nil {
			p[i] = nil
			panic(c)
		}
	}
}

// chainPanic is a panic recovered on one chain of a run-ahead frame, with
// the stack it was recovered on. Its text is the panic value's alone, as an
// inline frame's panic would print.
type chainPanic struct {
	value any
	stack []byte
}

func (p *chainPanic) Error() string { return fmt.Sprint(p.value) }

// Stack returns the stack of the goroutine the panic was recovered on.
func (p *chainPanic) Stack() []byte { return p.stack }

// chainWorkers is how many workers a frame of n points runs its two chains
// on: two, the planner on a core of its own, or one, the planner first.
func chainWorkers(n int) int {
	if n >= planGrain && runtime.GOMAXPROCS(0) > 1 {
		return 2
	}
	return 1
}

func (c *chains) Chunk(lo, hi int) {
	if hi-lo == 1 {
		defer c.guard(lo)
	}
	for i := lo; i < hi; i++ {
		if i == 0 {
			c.g.x.plan.run()
		} else {
			c.err = c.g.features()
		}
	}
}

// guard recovers a chain's panic. A planner's also stops the plan, so that
// the feature pass never waits on an entry that will not come; the planner
// waits on nothing.
func (c *chains) guard(slot int) {
	if v := recover(); v != nil {
		c.panicked.keep(slot, v)
		if slot == 0 {
			c.g.x.plan.stop(errChainPanicked)
		}
	}
}
