package serve

import (
	"context"
	"sync"
	"testing"

	"repro/internal/pipeline"
)

// ladderSteps pins the queue lengths at which the degradation ladder moves:
// it steps down on the enqueue that makes the queue `down` long, and a frame
// that finishes with `up` or fewer frames still queued is calm, so the
// ladderHysteresis-th such frame in a row steps it back up. These are the
// engine's integer thresholds — int(ladderHigh·depth + 0.5) and
// int(ladderLow·depth) — and internal/loadgen pins the same table against the
// simulator, so the two cannot drift apart again (at depths 3, 7 and 11 a
// float fill comparison steps one frame later than the engine does).
var ladderSteps = []struct {
	depth    int
	down, up int
}{
	{3, 2, 0},
	{4, 3, 1},
	{7, 5, 1},
	{8, 6, 2},
	{11, 8, 2},
}

func TestLadderStepsAtPinnedQueueLengths(t *testing.T) {
	for _, tc := range ladderSteps {
		l := NewLadder(2, tc.depth)
		for q := 1; q <= tc.depth && l.Tier() == 0; q++ {
			l.Enqueued(q)
			if stepped := l.Tier() == 1; stepped != (q == tc.down) {
				t.Fatalf("depth %d: tier %d after enqueue to %d, want the step down at %d", tc.depth, l.Tier(), q, tc.down)
			}
		}
		// Each queue length is observed ladderHysteresis times in a row: a
		// calm length steps the ladder up on the last of them, a busy one
		// never does.
		for q := tc.depth; q >= 0 && l.Tier() == 1; q-- {
			for k := 1; k <= ladderHysteresis; k++ {
				l.Done(q)
				if stepped := l.Tier() == 0; stepped != (q == tc.up && k == ladderHysteresis) {
					t.Fatalf("depth %d: tier %d after frame %d of %d leaving %d queued, want the step up on the last frame at %d",
						tc.depth, l.Tier(), k, ladderHysteresis, q, tc.up)
				}
			}
		}
		if downs, ups := l.Steps(); downs != 1 || ups != 1 {
			t.Fatalf("depth %d: %d step-downs %d step-ups, want 1/1", tc.depth, downs, ups)
		}
	}
}

// TestEngineLadderStepsAtPinnedQueueLengths drives the same table through a
// real engine of ladderHysteresis gated workers: every worker holds a frame
// while the queue is filled one frame at a time, then the gate releases one
// frame at a time. After each release but a queue length's last, one more
// frame refills the queue behind the pickup that follows, so each length is
// observed ladderHysteresis times; the last observations, at length 0, are
// the workers' final frames.
func TestEngineLadderStepsAtPinnedQueueLengths(t *testing.T) {
	const workers = ladderHysteresis
	for _, tc := range ladderSteps {
		gate := make(chan struct{})
		nets, tier1 := make([]pipeline.Net, workers), make([]pipeline.Net, workers)
		for i := range nets {
			nets[i], tier1[i] = &stubNet{gate: gate}, &stubNet{gate: gate}
		}
		e, err := NewEngine(nets, Config{QueueDepth: tc.depth, Degrade: []Tier{{Nets: tier1}}})
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
		picked := uint64(0)
		for ; picked < workers; picked++ {
			submit()
			waitUntil(t, "a worker to pick up a frame", func() bool { return e.Stats().Frames == picked+1 })
		}
		for q := 1; q <= tc.depth; q++ {
			submit()
			waitUntil(t, "frame to queue", func() bool { return e.Stats().QueueLen == q })
			// A submitter reads the queue length after its enqueue, so a slow
			// one can only see the queue as long as it is now: no step before
			// `down` are queued, and the step once they are.
			if q >= tc.down {
				waitUntil(t, "ladder to step down", func() bool { return e.Stats().StepDowns == 1 })
			} else if down := e.Stats().StepDowns; down != 0 {
				t.Fatalf("depth %d: %d step-downs with %d queued, want the step at %d", tc.depth, down, q, tc.down)
			}
		}
		for q := tc.depth; q >= 1; q-- {
			for k := 1; k <= ladderHysteresis; k++ {
				gate <- struct{}{} // one frame finishes with q frames queued
				picked++
				// The pickup follows the ladder's frame-done observation.
				waitUntil(t, "next pickup", func() bool { return e.Stats().Frames == picked })
				want := q < tc.up || q == tc.up && k == ladderHysteresis
				if up := e.Stats().StepUps; (up == 1) != want {
					t.Fatalf("depth %d: %d step-ups after frame %d of %d leaving %d queued, want the step on the last frame at %d",
						tc.depth, up, k, ladderHysteresis, q, tc.up)
				}
				if k < ladderHysteresis {
					submit()
					waitUntil(t, "frame to refill the queue", func() bool { return e.Stats().QueueLen == q })
				}
			}
		}
		for i := 0; i < workers; i++ {
			gate <- struct{}{} // the workers' last frames finish with none queued
		}
		wg.Wait()
		e.Close() // returns after the workers' last frame-done observations
		if up := e.Stats().StepUps; up != 1 {
			t.Fatalf("depth %d: %d step-ups after %d frames left none queued, want 1", tc.depth, up, workers)
		}
	}
}
