package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// Stall-storm chaos drills (run under -race in CI): 10% of frames wedge
// their worker far past StallTimeout and another 10% panic, concurrently.
// The survivability contract under that weather is exact accounting: every
// offered request terminates within its deadline budget with a result or a
// typed error — none lost (a Submit that never returns), none
// double-completed (a zombie's late result leaking past the watchdog's
// ErrStalled) — and the engine's own counters agree with the caller's view.

func TestChaosStallStorm(t *testing.T) {
	const (
		clients = 16
		perC    = 15
		frames  = clients * perC
	)
	e, err := NewEngine([]pipeline.Net{&stubNet{}}, Config{
		QueueDepth:     frames + 8, // never ErrQueueFull: isolate stall/panic classes
		StallTimeout:   8 * time.Millisecond,
		PanicTrip:      100000, // no breaker parks: isolate the watchdog path
		DefaultTimeout: 5 * time.Second,
		Rebuild:        func(worker, tier int) (pipeline.Net, error) { return &stubNet{}, nil },
		Faults: &faultinject.Plan{
			Seed:      7,
			StallFrac: 0.10,
			Stall:     40 * time.Millisecond, // 5x the watchdog timeout: a genuine wedge
			PanicFrac: 0.10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	var okN, panicN, stalledN, deadlineN atomic.Uint64
	cloud := testCloud()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				_, err := e.Submit(context.Background(), Request{Cloud: cloud})
				switch {
				case err == nil:
					okN.Add(1)
				case errors.Is(err, ErrPanic):
					panicN.Add(1)
				case errors.Is(err, ErrStalled):
					stalledN.Add(1)
				case errors.Is(err, ErrDeadline):
					deadlineN.Add(1)
				default:
					t.Errorf("client %d frame %d: untyped outcome %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()

	s := e.Stats()
	if total := okN.Load() + panicN.Load() + stalledN.Load() + deadlineN.Load(); total != frames {
		t.Fatalf("outcome classes sum to %d, want %d: a request was lost or double-counted", total, frames)
	}
	if okN.Load() != s.Completed {
		t.Fatalf("callers saw %d successes, engine completed %d: zombie result leaked or lost", okN.Load(), s.Completed)
	}
	if stalledN.Load() != s.Stalls {
		t.Fatalf("callers saw %d ErrStalled, engine counted %d", stalledN.Load(), s.Stalls)
	}
	if s.Stalls == 0 || panicN.Load() == 0 {
		t.Fatalf("storm too quiet (stalls=%d panics=%d); test is vacuous", s.Stalls, panicN.Load())
	}
	if s.Respawns == 0 {
		t.Fatal("no worker respawns: the watchdog never recovered a slot")
	}
	// Zombies that unstick may still panic after their frame was stall-failed,
	// so the panic counter bounds the caller-visible ErrPanic count from above.
	if s.Panics < panicN.Load() {
		t.Fatalf("engine counted %d panics, callers saw %d ErrPanic", s.Panics, panicN.Load())
	}
}

// TestFleetChaosStallStorm turns the same weather loose on a routed fleet
// with retries live: the conservation law must stay exact (via
// RouterStats.Conservation) while retries re-route around stalled and
// panicked attempts, and stalled attempts must feed the router's stall
// counter and quarantine streaks.
func TestFleetChaosStallStorm(t *testing.T) {
	const (
		fleet   = 3
		clients = 8
		perC    = 25
	)
	engines := make([]*Engine, fleet)
	for i := range engines {
		e, err := NewEngine([]pipeline.Net{&stubNet{}}, Config{
			QueueDepth:   64,
			StallTimeout: 8 * time.Millisecond,
			PanicTrip:    100000,
			Rebuild:      func(worker, tier int) (pipeline.Net, error) { return &stubNet{}, nil },
			Faults: &faultinject.Plan{
				Seed:      uint64(11 + i), // decorrelated storms per engine
				StallFrac: 0.10,
				Stall:     40 * time.Millisecond,
				PanicFrac: 0.10,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	rt, err := NewRouter(engines, RouterConfig{
		Retry: &RetryPolicy{Max: 2, BackoffBase: 200 * time.Microsecond, BackoffMax: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	var okN, errN atomic.Uint64
	cloud := testCloud()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perC; i++ {
				start := time.Now()
				_, err := rt.Submit(context.Background(), FleetRequest{
					Request: Request{Cloud: cloud, Timeout: 2 * time.Second},
					Tenant:  fmt.Sprintf("tenant-%d", c),
					Stream:  fmt.Sprintf("stream-%d-%d", c, i%4),
				})
				if took := time.Since(start); took > 4*time.Second {
					t.Errorf("client %d frame %d: took %v, past any deadline budget", c, i, took)
				}
				if err == nil {
					okN.Add(1)
					continue
				}
				errN.Add(1)
				if !errors.Is(err, ErrPanic) && !errors.Is(err, ErrStalled) &&
					!errors.Is(err, ErrDeadline) && !errors.Is(err, ErrQueueFull) {
					t.Errorf("client %d frame %d: untyped outcome %v", c, i, err)
				}
			}
		}(c)
	}
	wg.Wait()

	s := rt.Stats()
	conserve(t, s)
	if s.Offered != clients*perC {
		t.Fatalf("Offered = %d, want %d", s.Offered, clients*perC)
	}
	if s.Completed != okN.Load() {
		t.Fatalf("Completed = %d, callers saw %d", s.Completed, okN.Load())
	}
	if terminal := s.Failed + s.ShedThrottled + s.ShedOverload + s.ShedQueueFull; terminal != errN.Load() {
		t.Fatalf("error classes sum to %d, callers saw %d", terminal, errN.Load())
	}
	if s.Stalls == 0 {
		t.Fatal("no stalled attempts observed by the router; storm is vacuous")
	}
	if s.Retries == 0 {
		t.Fatal("no retries launched under the storm")
	}
	if attempted := s.Completed + s.Failed + s.ShedQueueFull; s.Retries > 2*attempted {
		t.Fatalf("Retries = %d > Max 2 × %d requests that reached the ring", s.Retries, attempted)
	}
	var respawns uint64
	for _, es := range s.EngineStats {
		respawns += es.Respawns
	}
	if respawns == 0 {
		t.Fatal("no worker respawns across the fleet")
	}
}
