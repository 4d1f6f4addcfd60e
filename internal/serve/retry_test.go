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

// newMixedFleet builds one single-worker engine per config (ungated stubs)
// and a router over them — for survivability tests where engines must fail
// differently (one panicking replica, healthy successors).
func newMixedFleet(t *testing.T, cfgs []Config, rcfg RouterConfig) *Router {
	t.Helper()
	engines := make([]*Engine, len(cfgs))
	for i, c := range cfgs {
		e, err := NewEngine([]pipeline.Net{&stubNet{}}, c)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	rt, err := NewRouter(engines, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() })
	return rt
}

// TestRetryReRoutesPanicToNextCandidate pins a stream to an owner that fails
// every frame transiently — by panicking, or by wedging until the armed
// stall watchdog fails it with ErrStalled — and asserts the retry policy
// re-routes the re-attempt to the ring successor instead of hammering the
// failed owner: the request completes, counted once, with exactly one retry.
func TestRetryReRoutesPanicToNextCandidate(t *testing.T) {
	cases := []struct {
		name   string
		owner  Config
		stalls uint64 // router-observed ErrStalled attempts
	}{
		{name: "panic", owner: Config{
			Faults: &faultinject.Plan{Seed: 3, PanicFrac: 1}}},
		{name: "stall", owner: Config{StallTimeout: 5 * time.Millisecond,
			Faults: &faultinject.Plan{Seed: 3, StallFrac: 1, Stall: 50 * time.Millisecond}},
			stalls: 1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			// The owner's queue is never full, so its attempt never spills:
			// only the retry can reach the successor.
			rt := newMixedFleet(t, []Config{c.owner, {}}, RouterConfig{Retry: &RetryPolicy{Max: 2}})
			stream := pinStream(t, rt, 0)
			res, err := rt.Submit(context.Background(), FleetRequest{
				Request: Request{Cloud: testCloud()}, Tenant: "t", Stream: stream,
			})
			if err != nil {
				t.Fatalf("retried frame: %v", err)
			}
			if res.Output == nil {
				t.Fatal("retried frame: no output")
			}
			s := rt.Stats()
			conserve(t, s)
			if s.Retries != 1 {
				t.Fatalf("Retries = %d, want 1", s.Retries)
			}
			if s.Completed != 1 || s.Failed != 0 {
				t.Fatalf("completed/failed = %d/%d, want 1/0", s.Completed, s.Failed)
			}
			if s.Stalls != c.stalls {
				t.Fatalf("Stalls = %d, want %d", s.Stalls, c.stalls)
			}
			if s.EngineStats[1].Completed != 1 {
				t.Fatal("re-attempt did not land on the ring successor")
			}
		})
	}
}

// TestExpiredDeadlineFailsWithOrWithoutRetries submits a request whose
// budget is already spent — an expired caller context, or a 1ns timeout — to
// a healthy fleet. The first attempt always runs, so with or without a retry
// policy the request must fail with a deadline error and count as Failed,
// never as a Completed request with no output.
func TestExpiredDeadlineFailsWithOrWithoutRetries(t *testing.T) {
	for _, retry := range []*RetryPolicy{nil, {Max: 2}} {
		for _, budget := range []string{"expired-ctx", "timeout-1ns"} {
			t.Run(fmt.Sprintf("retry=%v/%s", retry != nil, budget), func(t *testing.T) {
				rt := newMixedFleet(t, []Config{{}, {}}, RouterConfig{Retry: retry})
				ctx := context.Background()
				req := FleetRequest{Request: Request{Cloud: testCloud()}, Tenant: "t"}
				if budget == "expired-ctx" {
					var cancel context.CancelFunc
					ctx, cancel = context.WithDeadline(ctx, time.Now().Add(-time.Second))
					defer cancel()
				} else {
					req.Timeout = time.Nanosecond
				}
				_, err := rt.Submit(ctx, req)
				if !errors.Is(err, context.DeadlineExceeded) && !errors.Is(err, ErrDeadline) {
					t.Fatalf("err = %v, want a deadline error", err)
				}
				s := rt.Stats()
				conserve(t, s)
				if s.Completed != 0 || s.Failed != 1 || s.Retries != 0 {
					t.Fatalf("completed/failed/retries = %d/%d/%d, want 0/1/0", s.Completed, s.Failed, s.Retries)
				}
			})
		}
	}
}

// TestRetryRespectsDeadlineBudget gives a hopeless request (every engine
// attempt panics) a 20ms budget against the retry backoffs, which for this
// submission are 0.54, 1.98, 3.09, 6.80 and 13.38ms: the policy must stop
// retrying the moment the next backoff would cross the remaining budget —
// the fifth would end past 25.7ms — returning the transient error promptly
// instead of burning the full Max=5 schedule. The engine's breaker is off,
// so every attempt reaches a worker instead of queueing behind a park.
func TestRetryRespectsDeadlineBudget(t *testing.T) {
	e := newBreakerOffEngine(t, Config{Faults: &faultinject.Plan{Seed: 3, PanicFrac: 1}})
	rt, err := NewRouter([]*Engine{e}, RouterConfig{Retry: &RetryPolicy{Max: 5}})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	start := time.Now()
	_, err = rt.Submit(context.Background(), FleetRequest{
		Request: Request{Cloud: testCloud(), Timeout: 20 * time.Millisecond}, Tenant: "t",
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want the transient ErrPanic the budget cut off", err)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("submit took %v; retries ran past the 20ms budget", elapsed)
	}
	s := rt.Stats()
	conserve(t, s)
	if s.Retries < 1 || s.Retries >= 5 {
		t.Fatalf("Retries = %d, want in [1, 5): some retries within budget, never the full schedule", s.Retries)
	}
	if s.Failed != 1 {
		t.Fatalf("Failed = %d, want 1", s.Failed)
	}
}

// TestRetryNeverRetriesTerminalErrors: invalid input is the frame's fault —
// no engine will ever accept it, so the retry policy must not spend budget
// on it.
func TestRetryNeverRetriesTerminalErrors(t *testing.T) {
	rt := newMixedFleet(t, []Config{{}},
		RouterConfig{Retry: &RetryPolicy{Max: 3}})
	_, err := rt.Submit(context.Background(), FleetRequest{Tenant: "t"}) // nil cloud
	if !errors.Is(err, ErrInvalidInput) {
		t.Fatalf("err = %v, want ErrInvalidInput", err)
	}
	s := rt.Stats()
	conserve(t, s)
	if s.Retries != 0 {
		t.Fatalf("Retries = %d, want 0 (terminal error retried)", s.Retries)
	}
}

// TestRouterSurvivabilityConcurrentConservation is the satellite accounting
// test: concurrent tenants over a panicking fleet with retries live. Every
// offered request must terminate in exactly one class — the conservation
// law, checked by RouterStats.Conservation — no request may retry more than
// Max times, and the caller-observed outcome tallies must equal the router's
// own counters.
func TestRouterSurvivabilityConcurrentConservation(t *testing.T) {
	const (
		goroutines = 8
		perG       = 25
	)
	cfg := Config{QueueDepth: 64, Faults: &faultinject.Plan{Seed: 5, PanicFrac: 0.08}}
	rt := newMixedFleet(t, []Config{cfg, cfg, cfg}, RouterConfig{Retry: &RetryPolicy{Max: 2}})
	var ok, failed atomic.Uint64
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			cloud := testCloud()
			for i := 0; i < perG; i++ {
				_, err := rt.Submit(context.Background(), FleetRequest{
					Request: Request{Cloud: cloud, Timeout: 2 * time.Second},
					Tenant:  fmt.Sprintf("tenant-%d", g),
					Stream:  fmt.Sprintf("stream-%d-%d", g, i%5),
				})
				if err == nil {
					ok.Add(1)
				} else {
					failed.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	s := rt.Stats()
	conserve(t, s)
	if s.Offered != goroutines*perG {
		t.Fatalf("Offered = %d, want %d", s.Offered, goroutines*perG)
	}
	if s.Completed != ok.Load() {
		t.Fatalf("Completed = %d, caller saw %d successes", s.Completed, ok.Load())
	}
	if terminal := s.Failed + s.ShedThrottled + s.ShedOverload + s.ShedQueueFull; terminal != failed.Load() {
		t.Fatalf("error classes sum to %d, caller saw %d failures", terminal, failed.Load())
	}
	if attempted := s.Completed + s.Failed + s.ShedQueueFull; s.Retries > 2*attempted {
		t.Fatalf("Retries = %d > Max 2 × %d requests that reached the ring", s.Retries, attempted)
	}
}
