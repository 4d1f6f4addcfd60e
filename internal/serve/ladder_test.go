package serve

import (
	"context"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

// ladderSteps pins the queue lengths at which the degradation ladder moves:
// it steps down on the enqueue that makes the queue `down` long and steps up
// on the frame that finishes with `up` frames still queued. These are the
// engine's integer thresholds — int(high·depth + 0.5) and int(low·depth) —
// and internal/loadgen pins the same table against the simulator, so the two
// cannot drift apart again (at depths 3, 7 and 11 a float fill comparison
// steps one frame later than the engine does).
var ladderSteps = []struct {
	depth     int
	high, low float64
	down, up  int
}{
	{3, 0.75, 0.25, 2, 0},
	{4, 0.75, 0.25, 3, 1},
	{7, 0.75, 0.25, 5, 1},
	{8, 0.75, 0.25, 6, 2},
	{11, 0.75, 0.25, 8, 2},
	{3, 0.5, 0.25, 2, 0},
	{4, 0.5, 0.25, 2, 1},
	{7, 0.5, 0.25, 4, 1},
	{8, 0.5, 0.25, 4, 2},
	{11, 0.5, 0.25, 6, 2},
	{7, 0, 0, 5, 1}, // zero selects the defaults: high 0.75, low high/3
}

func TestLadderStepsAtPinnedQueueLengths(t *testing.T) {
	for _, tc := range ladderSteps {
		l := NewLadder(2, tc.depth, tc.high, tc.low, 1)
		for q := 1; q <= tc.depth && l.Tier() == 0; q++ {
			l.Enqueued(q)
			if stepped := l.Tier() == 1; stepped != (q == tc.down) {
				t.Fatalf("depth %d high %g: tier %d after enqueue to %d, want the step down at %d", tc.depth, tc.high, l.Tier(), q, tc.down)
			}
		}
		for q := tc.depth; q >= 0 && l.Tier() == 1; q-- {
			l.Done(q)
			if stepped := l.Tier() == 0; stepped != (q == tc.up) {
				t.Fatalf("depth %d low %g: tier %d after a frame leaving %d queued, want the step up at %d", tc.depth, tc.low, l.Tier(), q, tc.up)
			}
		}
		if downs, ups := l.Steps(); downs != 1 || ups != 1 {
			t.Fatalf("depth %d: %d step-downs %d step-ups, want 1/1", tc.depth, downs, ups)
		}
	}
}

// TestEngineLadderStepsAtPinnedQueueLengths drives the same table through a
// real engine: one gated worker holds a frame while the queue is filled one
// frame at a time, then the gate releases one frame at a time.
func TestEngineLadderStepsAtPinnedQueueLengths(t *testing.T) {
	for _, tc := range ladderSteps {
		gate := make(chan struct{})
		e, err := NewEngine([]pipeline.Net{&stubNet{gate: gate}}, Config{
			QueueDepth: tc.depth, Hysteresis: 1,
			HighWatermark: tc.high, LowWatermark: tc.low,
			Degrade: []Tier{{Nets: []pipeline.Net{&stubNet{gate: gate}}}},
		})
		if err != nil {
			t.Fatal(err)
		}
		cloud := testCloud()
		var wg sync.WaitGroup
		submit := func() {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); err != nil {
					t.Errorf("submit: %v", err)
				}
			}()
		}
		submit()
		waitUntil(t, "worker to pick up the first frame", func() bool { return e.Stats().Frames == 1 })
		for q := 1; q <= tc.depth; q++ {
			submit()
			waitUntil(t, "frame to queue", func() bool { return e.Stats().QueueLen == q })
			// A submitter reads the queue length after its enqueue, so a slow
			// one can only see the queue as long as it is now: no step before
			// `down` are queued, and the step once they are.
			if q >= tc.down {
				waitUntil(t, "ladder to step down", func() bool { return e.Stats().StepDowns == 1 })
			} else if down := e.Stats().StepDowns; down != 0 {
				t.Fatalf("depth %d high %g: %d step-downs with %d queued, want the step at %d", tc.depth, tc.high, down, q, tc.down)
			}
		}
		for q := tc.depth; q >= 0; q-- {
			gate <- struct{}{} // one frame finishes with q frames queued
			if q > 0 {
				// The next pickup follows the ladder's frame-done observation.
				waitUntil(t, "next pickup", func() bool { return e.Stats().Frames == uint64(tc.depth-q+2) })
			} else {
				wg.Wait()
				e.Close()
			}
			if up := e.Stats().StepUps; (up == 1) != (q <= tc.up) {
				t.Fatalf("depth %d low %g: %d step-ups after a frame leaving %d queued, want the step at %d", tc.depth, tc.low, up, q, tc.up)
			}
		}
	}
}
