package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// TestStallWatchdogDetectsAndRespawns wedges the only worker on a gated
// forward pass and asserts the full recovery contract: the in-flight request
// fails with ErrStalled within the watchdog's detection window, the slot is
// respawned through Rebuild, and the next request completes on the
// replacement while the zombie goroutine stays parked on the gate.
func TestStallWatchdogDetectsAndRespawns(t *testing.T) {
	gate := make(chan struct{})
	t.Cleanup(func() { close(gate) }) // unstick the zombie after Close
	e := newStubEngine(t, gate, Config{
		StallTimeout: 10 * time.Millisecond,
		Rebuild:      func(worker, tier int) (pipeline.Net, error) { return &stubNet{}, nil },
	})
	defer e.Close()
	cloud := testCloud()

	start := time.Now()
	_, err := e.Submit(context.Background(), Request{Cloud: cloud})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("wedged frame: err = %v, want ErrStalled", err)
	}
	if waited := time.Since(start); waited > 2*time.Second {
		t.Fatalf("stall detection took %v; watchdog not sweeping", waited)
	}

	// The replacement worker carries the slot: an ungated replica serves.
	res, err := e.Submit(context.Background(), Request{Cloud: cloud})
	if err != nil {
		t.Fatalf("post-respawn frame: %v", err)
	}
	if res.Output == nil {
		t.Fatal("post-respawn frame: no output")
	}

	s := e.Stats()
	if s.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", s.Stalls)
	}
	if s.Respawns != 1 {
		t.Fatalf("Respawns = %d, want 1", s.Respawns)
	}
	if s.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (stalled frame must not double-complete)", s.Completed)
	}
}

// TestStallWithoutRebuildFailsBatchInPlace covers the degraded watchdog mode:
// with no Rebuild hook the wedged replica cannot be replaced, but the
// in-flight frame must still fail with ErrStalled so callers are never
// wedged. Once the worker unsticks on its own it keeps serving — no respawn.
func TestStallWithoutRebuildFailsBatchInPlace(t *testing.T) {
	gate := make(chan struct{})
	e := newStubEngine(t, gate, Config{
		StallTimeout: 10 * time.Millisecond,
	})
	defer e.Close()
	cloud := testCloud()

	_, err := e.Submit(context.Background(), Request{Cloud: cloud})
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("wedged frame: err = %v, want ErrStalled", err)
	}

	close(gate) // the worker unsticks; its late result must be discarded
	res, err := e.Submit(context.Background(), Request{Cloud: cloud})
	if err != nil {
		t.Fatalf("post-unstick frame: %v", err)
	}
	if res.Output == nil {
		t.Fatal("post-unstick frame: no output")
	}

	s := e.Stats()
	if s.Stalls != 1 {
		t.Fatalf("Stalls = %d, want 1", s.Stalls)
	}
	if s.Respawns != 0 {
		t.Fatalf("Respawns = %d, want 0 (no Rebuild hook, no respawn)", s.Respawns)
	}
	if s.Completed != 1 {
		t.Fatalf("Completed = %d, want 1 (late unstick must not double-count)", s.Completed)
	}
}

// TestStallCountsTowardBreaker drives two injected stalls (faultinject
// StallFrames) through a PanicTrip=2 engine and asserts stalls feed the same
// circuit breaker as panics: the second replacement inherits the streak and
// parks before its first frame, after which serving resumes.
func TestStallCountsTowardBreaker(t *testing.T) {
	e := newStubEngine(t, nil, Config{
		StallTimeout: 6 * time.Millisecond,
		PanicTrip:    2,
		BackoffBase:  20 * time.Millisecond,
		BackoffMax:   100 * time.Millisecond,
		Rebuild:      func(worker, tier int) (pipeline.Net, error) { return &stubNet{}, nil },
		Faults: &faultinject.Plan{
			StallFrames: []uint64{0, 1},
			Stall:       time.Second, // far past StallTimeout: a genuine wedge
		},
	})
	defer e.Close()
	cloud := testCloud()

	for i := 0; i < 2; i++ {
		if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); !errors.Is(err, ErrStalled) {
			t.Fatalf("stalled frame %d: err = %v, want ErrStalled", i, err)
		}
	}
	// Frame 2 is clean; it waits out the inherited breaker park, then serves.
	res, err := e.Submit(context.Background(), Request{Cloud: cloud})
	if err != nil {
		t.Fatalf("post-park frame: %v", err)
	}
	if res.Output == nil {
		t.Fatal("post-park frame: no output")
	}

	s := e.Stats()
	if s.Stalls != 2 {
		t.Fatalf("Stalls = %d, want 2", s.Stalls)
	}
	if s.Respawns != 2 {
		t.Fatalf("Respawns = %d, want 2", s.Respawns)
	}
	if s.BreakerTrips < 1 {
		t.Fatalf("BreakerTrips = %d, want >= 1 (stall streak must trip the breaker)", s.BreakerTrips)
	}
}

// TestStallRebuildPanicRetiresSlot deposes wedged workers whose Rebuild hook
// panics. The panic on the watchdog goroutine counts like any contained panic
// and names the worker, the rebuild counts as failed so the slot retires, the
// wedged incarnation's WaitGroup slot is released so Close returns, and the
// watchdog keeps sweeping: in a two-worker engine the second wedged worker
// still gets ErrStalled.
func TestStallRebuildPanicRetiresSlot(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			nets := make([]pipeline.Net, workers)
			stallFrames := make([]uint64, workers)
			for i := range nets {
				nets[i] = &stubNet{}
				stallFrames[i] = uint64(i)
			}
			e, err := NewEngine(nets, Config{
				StallTimeout: 5 * time.Millisecond,
				Rebuild: func(worker, tier int) (pipeline.Net, error) {
					panic("rebuild exploded")
				},
				Faults: &faultinject.Plan{StallFrames: stallFrames, Stall: 100 * time.Millisecond},
			})
			if err != nil {
				t.Fatal(err)
			}
			cloud := testCloud()
			// One frame at a time: each lands on a live worker, because a
			// deposed incarnation never dequeues again.
			for i := 0; i < workers; i++ {
				if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); !errors.Is(err, ErrStalled) {
					t.Fatalf("wedged frame %d: err = %v, want ErrStalled", i, err)
				}
				waitUntil(t, "the rebuild panic to be recorded", func() bool { return e.Stats().Panics == uint64(i+1) })
			}
			s := e.Stats()
			if !strings.Contains(s.LastPanic, "rebuild exploded") || strings.HasPrefix(s.LastPanic, "worker -1") {
				t.Errorf("LastPanic = %.60q, want the rebuild panic on a named worker", s.LastPanic)
			}
			if s.Stalls != uint64(workers) || s.Respawns != 0 {
				t.Errorf("Stalls = %d, Respawns = %d, want %d and 0", s.Stalls, s.Respawns, workers)
			}
			for i := range e.slots {
				if e.slots[i].Load() != nil {
					t.Errorf("slot %d still holds its deposed incarnation; a failed rebuild retires the slot", i)
				}
			}
			closed := make(chan error, 1)
			go func() { closed <- e.Close() }()
			select {
			case err := <-closed:
				if err != nil {
					t.Fatalf("Close: %v", err)
				}
			case <-time.After(3 * time.Second):
				t.Fatal("Close still blocked 3s after the rebuild panic")
			}
		})
	}
}

// TestBreakerBackoffJitterPinned pins the seeded breaker jitter: the exact
// park schedule for a fixed (seed, worker) must never drift across
// refactors, every park must land in [d/2, d) of its un-jittered doubling,
// and distinct workers must decorrelate.
func TestBreakerBackoffJitterPinned(t *testing.T) {
	const (
		base = 100 * time.Millisecond
		max  = 5 * time.Second
		seed = uint64(1)
	)
	want := []time.Duration{ // worker 0, trips 0..5 — regenerate only on a deliberate schedule change
		53824454,
		198394749,
		308675001,
		679941820,
		1338092046,
		1786401717,
	}
	for trip, w := range want {
		got := breakerBackoff(base, max, trip, seed, 0)
		if got != w {
			t.Fatalf("trip %d: backoff = %d, want pinned %d", trip, got, w)
		}
	}
	// Bounds: every jittered park lies in [d/2, d) of the capped doubling.
	for worker := 0; worker < 4; worker++ {
		for trip := 0; trip < 10; trip++ {
			d := base << min(trip, 20)
			if d <= 0 || d > max {
				d = max
			}
			got := breakerBackoff(base, max, trip, seed, worker)
			if got < d/2 || got >= d {
				t.Fatalf("worker %d trip %d: backoff %v outside [%v, %v)", worker, trip, got, d/2, d)
			}
			if again := breakerBackoff(base, max, trip, seed, worker); again != got {
				t.Fatalf("worker %d trip %d: non-deterministic backoff %v != %v", worker, trip, again, got)
			}
		}
	}
	if breakerBackoff(base, max, 0, seed, 1) == breakerBackoff(base, max, 0, seed, 0) {
		t.Fatal("workers 0 and 1 share a park schedule; jitter must decorrelate workers")
	}
}
