package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/pipeline"
)

// Fleet chaos drill (run under -race in CI): one engine of a four-engine
// fleet panic-storms on every frame. The router must quarantine it, re-route
// its streams to the survivors, keep the accounting conservation law exact,
// and keep serving the healthy tenants with bounded latency.

func TestFleetChaosPanicStorm(t *testing.T) {
	const (
		fleet   = 4
		victim  = 1
		clients = 8
		frames  = 25 // per client
	)
	// A pinned clock makes the quarantine permanent for the test's duration:
	// downUntil = now + cooloff never expires when now never advances.
	pinned := time.Unix(2000, 0)
	clock := func() time.Time { return pinned }

	engines := make([]*Engine, fleet)
	for i := range engines {
		cfg := Config{QueueDepth: 64}
		if i == victim {
			cfg.Faults = &faultinject.Plan{Seed: 7, PanicFrac: 1} // every frame panics
		}
		e, err := NewEngine([]pipeline.Net{&stubNet{}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	rt, err := NewRouter(engines, RouterConfig{Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()

	// Phase 1 — the storm: concurrent clients spread streams over the whole
	// ring, so a quarter of them route into the panicking engine until the
	// router's streak counter trips.
	cloud := testCloud()
	var wg sync.WaitGroup
	var panicked, served int64
	var mu sync.Mutex
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				_, err := rt.Submit(context.Background(), FleetRequest{
					Request: Request{Cloud: cloud},
					Tenant:  fmt.Sprintf("tenant-%d", c),
					Stream:  fmt.Sprintf("client-%d-stream-%d", c, i),
				})
				mu.Lock()
				switch {
				case err == nil:
					served++
				case errors.Is(err, ErrPanic):
					panicked++
				default:
					t.Errorf("client %d frame %d: unexpected %v", c, i, err)
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()

	s := rt.Stats()
	conserve(t, s)
	if !rt.Quarantined(victim) || !s.Quarantined[victim] {
		t.Fatal("panic-storming engine not quarantined")
	}
	for i := 0; i < fleet; i++ {
		if i != victim && s.Quarantined[i] {
			t.Fatalf("healthy engine %d quarantined", i)
		}
	}
	if s.Quarantines == 0 {
		t.Fatal("no quarantine event recorded")
	}
	if panicked == 0 {
		t.Fatal("storm injected no panics; test is vacuous")
	}
	if uint64(panicked) != s.Failed || uint64(served) != s.Completed {
		t.Fatalf("client view (%d ok, %d panicked) disagrees with router (%d, %d)",
			served, panicked, s.Completed, s.Failed)
	}

	// Phase 2 — re-route: streams owned by the quarantined engine must now be
	// served by survivors, and the victim must see no new frames.
	beforeVictim := s.EngineStats[victim].Submitted
	rerouted := 0
	for i := 0; rerouted < 10 && i < 10000; i++ {
		stream := fmt.Sprintf("rehomed-%d", i)
		if rt.EngineFor(stream) != victim {
			continue
		}
		rerouted++
		if _, err := rt.Submit(context.Background(), FleetRequest{
			Request: Request{Cloud: cloud}, Tenant: "rehomed", Stream: stream,
		}); err != nil {
			t.Fatalf("re-routed frame %d: %v", rerouted, err)
		}
	}
	if rerouted == 0 {
		t.Fatal("no streams owned by victim found")
	}
	s = rt.Stats()
	conserve(t, s)
	if s.EngineStats[victim].Submitted != beforeVictim {
		t.Fatalf("quarantined engine still receiving frames: %d -> %d",
			beforeVictim, s.EngineStats[victim].Submitted)
	}
	if ts := s.Tenants["rehomed"]; ts.Completed != uint64(rerouted) || ts.Failed != 0 {
		t.Fatalf("rehomed tenant: %+v, want %d clean completions", ts, rerouted)
	}
	// Healthy-tenant latency stays bounded through the storm: stub engines
	// serve in microseconds, so a 1s p99 ceiling catches any stall by orders
	// of magnitude.
	if s.Latency.P99 <= 0 || s.Latency.P99 > time.Second {
		t.Fatalf("fleet p99 = %v, want bounded (0, 1s]", s.Latency.P99)
	}
}
