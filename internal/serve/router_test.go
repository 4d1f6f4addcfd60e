package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// Router integration tests over stub-net fleets: affinity, QoS wiring,
// shed ordering (low-priority shed while high-priority keeps being served),
// spillover, and accounting conservation.

// newStubFleet builds n single-worker engines, each with its own gate
// channel (nil gates serve instantly), and a router over them.
func newStubFleet(t *testing.T, n int, gated bool, cfg Config, rcfg RouterConfig) (*Router, []chan struct{}) {
	t.Helper()
	gates := make([]chan struct{}, n)
	engines := make([]*Engine, n)
	for i := range engines {
		var gate chan struct{}
		if gated {
			gate = make(chan struct{})
		}
		gates[i] = gate
		e, err := NewEngine([]pipeline.Net{&stubNet{gate: gate}}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = e
	}
	rt, err := NewRouter(engines, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cleanup (not a test-body defer): open every gate before closing the
	// router, so a mid-test Fatal can never deadlock Close behind a worker
	// parked in a gated Forward.
	t.Cleanup(func() {
		for _, g := range gates {
			if g == nil {
				continue
			}
			select {
			case <-g: // already closed by the test body
			default:
				close(g)
			}
		}
		rt.Close()
	})
	return rt, gates
}

// conserve asserts the router's accounting conservation law.
func conserve(t *testing.T, s RouterStats) {
	t.Helper()
	if err := s.Conservation(); err != nil {
		t.Fatal(err)
	}
}

func TestRouterServesAndRoutesByAffinity(t *testing.T) {
	rt, _ := newStubFleet(t, 4, false, Config{}, RouterConfig{})
	cloud := testCloud()
	const frames = 40
	for i := 0; i < frames; i++ {
		stream := fmt.Sprintf("stream-%d", i%8)
		want := rt.EngineFor(stream)
		res, err := rt.Submit(context.Background(), FleetRequest{
			Request: Request{Cloud: cloud},
			Tenant:  fmt.Sprintf("tenant-%d", i%3),
			Stream:  stream,
		})
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if res.Output == nil {
			t.Fatalf("frame %d: no output", i)
		}
		// With idle engines nothing spills: the owner serves its streams.
		if got := rt.EngineFor(stream); got != want {
			t.Fatalf("stream %q moved engines %d -> %d", stream, want, got)
		}
	}
	s := rt.Stats()
	conserve(t, s)
	if s.Completed != frames || s.Spills != 0 {
		t.Fatalf("completed=%d spills=%d, want %d/0", s.Completed, s.Spills, frames)
	}
	var engineTotal uint64
	for _, es := range s.EngineStats {
		engineTotal += es.Completed
	}
	if engineTotal != frames {
		t.Fatalf("engine completions sum %d, want %d", engineTotal, frames)
	}
	if len(s.Tenants) != 3 {
		t.Fatalf("tenant counters = %d, want 3", len(s.Tenants))
	}
}

func TestRouterTenantFallsBackAsRoutingKey(t *testing.T) {
	rt, _ := newStubFleet(t, 3, false, Config{}, RouterConfig{})
	// With no Stream, the tenant is the routing key.
	if _, err := rt.Submit(context.Background(), FleetRequest{
		Request: Request{Cloud: testCloud()},
		Tenant:  "solo",
	}); err != nil {
		t.Fatal(err)
	}
	owner := rt.EngineFor("solo")
	s := rt.Stats()
	if s.EngineStats[owner].Completed != 1 {
		t.Fatalf("tenant-keyed frame not served by owner %d", owner)
	}
}

func TestRouterQoSThrottles(t *testing.T) {
	clk := newFakeClock()
	qos := NewQoS(QoSConfig{
		Tenants: map[string]TenantLimit{"metered": {Rate: 1, Burst: 2}},
		Clock:   clk.Now,
	})
	rt, _ := newStubFleet(t, 2, false, Config{}, RouterConfig{QoS: qos, Clock: clk.Now})
	cloud := testCloud()
	var throttled int
	for i := 0; i < 3; i++ {
		_, err := rt.Submit(context.Background(), FleetRequest{Request: Request{Cloud: cloud}, Tenant: "metered"})
		if errors.Is(err, ErrThrottled) {
			throttled++
		} else if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if throttled != 1 {
		t.Fatalf("throttled = %d of 3 at burst 2, want 1", throttled)
	}
	s := rt.Stats()
	conserve(t, s)
	if s.ShedThrottled != 1 || s.Completed != 2 || s.QoS.Throttled != 1 {
		t.Fatalf("stats: %+v", s)
	}
	if ts := s.Tenants["metered"]; ts.Completed != 2 || ts.Shed != 1 {
		t.Fatalf("tenant counters: %+v", ts)
	}
}

func TestRouterShedsLowPriorityWhileServingHigh(t *testing.T) {
	// The overload ordering story end to end: fill the fleet with
	// high-priority work past the shed watermark, then watch a low-priority
	// frame get shed by the fleet controller while every high-priority frame
	// is served once capacity frees up.
	qos := NewQoS(QoSConfig{
		Tenants: map[string]TenantLimit{
			"hi": {Priority: PriorityHigh}, // unlimited rate
			"lo": {Priority: PriorityLow},
		},
	})
	const inflight = 14 // 2 workers busy + 12 queued of 16 slots: fill 0.75
	rt, gates := newStubFleet(t, 2, true,
		Config{QueueDepth: 8},
		RouterConfig{QoS: qos})
	cloud := testCloud()
	var wg sync.WaitGroup
	errs := make([]error, inflight)
	for i := 0; i < inflight; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = rt.Submit(context.Background(), FleetRequest{
				Request: Request{Cloud: cloud},
				Tenant:  "hi",
				Stream:  fmt.Sprintf("cam-%d", i),
			})
		}(i)
	}
	waitUntil(t, "fleet queues to fill", func() bool {
		var submitted uint64
		for i := 0; i < rt.Engines(); i++ {
			submitted += rt.Engine(i).Stats().Submitted
		}
		return submitted == inflight
	})

	// Fleet mean fill is now 12/16 = 0.75, past the 0.55 shed watermark: the
	// low-priority frame is dropped before touching any queue...
	if _, err := rt.Submit(context.Background(), FleetRequest{Request: Request{Cloud: cloud}, Tenant: "lo"}); !errors.Is(err, ErrShed) {
		t.Fatalf("low-priority frame under pressure: %v, want ErrShed", err)
	}
	// ...while high-priority frames are still admitted (never shed).
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := rt.Submit(context.Background(), FleetRequest{
			Request: Request{Cloud: cloud}, Tenant: "hi", Stream: "cam-extra",
		})
		if err != nil {
			t.Errorf("high-priority frame under pressure: %v", err)
		}
	}()

	for _, g := range gates {
		close(g)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("high frame %d: %v", i, err)
		}
	}
	s := rt.Stats()
	conserve(t, s)
	if s.ShedOverload != 1 {
		t.Fatalf("shed overload = %d, want exactly the low frame", s.ShedOverload)
	}
	if s.Completed != inflight+1 {
		t.Fatalf("completed = %d, want all %d high frames", s.Completed, inflight+1)
	}
	if s.Shed.Level == 0 && s.Shed.Raises == 0 {
		t.Fatal("shed controller never engaged")
	}
	if ts := s.Tenants["hi"]; ts.Shed != 0 {
		t.Fatalf("high-priority tenant shed %d frames", ts.Shed)
	}
}

// pinStream finds a stream key owned by the wanted engine.
func pinStream(t *testing.T, rt *Router, engine int) string {
	t.Helper()
	for i := 0; i < 10000; i++ {
		key := fmt.Sprintf("pin-%d", i)
		if rt.EngineFor(key) == engine {
			return key
		}
	}
	t.Fatal("no key found for engine")
	return ""
}

// fillCandidates blocks the worker and the depth-1 queue of each of the
// stream's first k ring candidates, owner first, with background submits.
// It submits to the engines directly, not through the router: a router
// submit that races with an earlier filler still sitting in a depth-1 queue
// would spill to the successor instead of filling its engine.
func fillCandidates(t *testing.T, rt *Router, stream string, k int, wg *sync.WaitGroup) {
	t.Helper()
	cloud := testCloud()
	for _, id := range rt.ring.Candidates(stream, k, nil) {
		eng := rt.Engine(id)
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					_, err := eng.Submit(context.Background(), Request{Cloud: cloud})
					if errors.Is(err, ErrQueueFull) {
						// Lost the enqueue race to a sibling filler: retry until
						// the worker+queue steady state absorbs every filler.
						time.Sleep(100 * time.Microsecond)
						continue
					}
					if err != nil {
						t.Errorf("filler: %v", err)
					}
					return
				}
			}()
		}
		waitUntil(t, "engine to fill", func() bool {
			return eng.QueueFill() >= 1
		})
	}
}

func TestRouterSpillsToRingSuccessor(t *testing.T) {
	rt, gates := newStubFleet(t, 2, true, Config{QueueDepth: 1}, RouterConfig{})
	stream := pinStream(t, rt, 0)
	var wg sync.WaitGroup
	fillCandidates(t, rt, stream, 1, &wg) // worker + depth-1 queue of engine 0
	// Engine 1 is idle: mean fill 0.5 stays under the shed watermark, and
	// the next frame for engine 0's stream spills to engine 1 and completes
	// even though its owner is saturated.
	close(gates[1])
	if _, err := rt.Submit(context.Background(), FleetRequest{
		Request: Request{Cloud: testCloud()}, Tenant: "t", Stream: stream,
	}); err != nil {
		t.Fatalf("spill frame: %v", err)
	}
	close(gates[0])
	wg.Wait()
	s := rt.Stats()
	conserve(t, s)
	if s.Spills == 0 {
		t.Fatal("no spill recorded")
	}
	if s.EngineStats[1].Completed == 0 {
		t.Fatal("successor engine served nothing")
	}
}

func TestRouterQueueFullWhenSpillExhausted(t *testing.T) {
	rt, gates := newStubFleet(t, 4, true, Config{QueueDepth: 1}, RouterConfig{})
	stream := pinStream(t, rt, 0)
	var wg sync.WaitGroup
	// The owner and its Spill successors full: mean fill 2/4 stays under
	// the shed watermark, so the overflow frame reaches the ring walk, spills
	// once and is shed as queue-full.
	fillCandidates(t, rt, stream, 1+Spill, &wg)
	if _, err := rt.Submit(context.Background(), FleetRequest{
		Request: Request{Cloud: testCloud()}, Tenant: "t", Stream: stream,
	}); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow past the spill candidates: %v, want ErrQueueFull", err)
	}
	for _, g := range gates {
		close(g)
	}
	wg.Wait()
	s := rt.Stats()
	conserve(t, s)
	if s.ShedQueueFull != 1 || s.Spills != Spill {
		t.Fatalf("shedQueueFull=%d spills=%d, want 1/%d", s.ShedQueueFull, s.Spills, Spill)
	}
}

func TestRouterConstructionAndClose(t *testing.T) {
	if _, err := NewRouter(nil, RouterConfig{}); err == nil {
		t.Fatal("empty fleet accepted")
	}
	if _, err := NewRouter([]*Engine{nil}, RouterConfig{}); err == nil {
		t.Fatal("nil engine accepted")
	}
	e := newStubEngine(t, nil, Config{})
	if _, err := NewRouter([]*Engine{e, e}, RouterConfig{}); err == nil {
		t.Fatal("duplicate engine accepted")
	}
	rt, err := NewRouter([]*Engine{e}, RouterConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("first close: %v", err)
	}
	if err := rt.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v, want ErrClosed", err)
	}
	if _, err := rt.Submit(context.Background(), FleetRequest{Request: Request{Cloud: testCloud()}, Tenant: "t"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close: %v, want ErrClosed", err)
	}
}

// TestRouterThreadsCallerContext cancels the caller's context while its frame
// is inside a gated engine's forward pass, once for every path that hands the
// context to Engine.Submit: the plain ring walk, a spill past a full owner,
// fail-open through a fully quarantined candidate set, and a retry after its
// backoff. Router.Submit must return context.Canceled
// within seconds and every engine holding the frame must count the
// abandonment; a path that handed the engine a context of its own would wait
// on the gate instead.
func TestRouterThreadsCallerContext(t *testing.T) {
	fill := func(k int) func(t *testing.T, rt *Router, stream string, fillers *sync.WaitGroup) {
		return func(t *testing.T, rt *Router, stream string, fillers *sync.WaitGroup) {
			fillCandidates(t, rt, stream, k, fillers)
		}
	}
	quarantineAll := func(t *testing.T, rt *Router, stream string, fillers *sync.WaitGroup) {
		for i := range rt.downUntil {
			rt.downUntil[i].Store(math.MaxInt64)
		}
	}
	cases := []struct {
		name string
		cfg  Config
		rcfg RouterConfig
		prep func(t *testing.T, rt *Router, stream string, fillers *sync.WaitGroup)
		busy []int                    // ring positions whose engine's worker holds the frame at cancel
		path func(RouterStats) uint64 // the counter that shows the path was taken
	}{
		{name: "walk", cfg: Config{}, busy: []int{0}},
		{name: "spill", cfg: Config{QueueDepth: 1}, prep: fill(1), busy: []int{1},
			path: func(s RouterStats) uint64 { return s.Spills }},
		{name: "fail-open", cfg: Config{}, prep: quarantineAll, busy: []int{0},
			path: func(s RouterStats) uint64 { return s.FailOpen }},
		// The owner and its successor full: the first attempt's walk ends in
		// ErrQueueFull and the retry rotates on to the third engine.
		{name: "retry", cfg: Config{QueueDepth: 1}, prep: fill(2), busy: []int{2},
			rcfg: RouterConfig{Retry: &RetryPolicy{Max: 1}},
			path: func(s RouterStats) uint64 { return s.Retries }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rt, gates := newStubFleet(t, 3, true, c.cfg, c.rcfg)
			stream := pinStream(t, rt, 0)
			cand := rt.ring.Candidates(stream, 3, nil)
			var busy []int
			for _, pos := range c.busy {
				busy = append(busy, cand[pos])
			}
			var fillers sync.WaitGroup
			if c.prep != nil {
				c.prep(t, rt, stream, &fillers)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			done := make(chan error, 1)
			go func() {
				_, err := rt.Submit(ctx, FleetRequest{Request: Request{Cloud: testCloud()}, Tenant: "t", Stream: stream})
				done <- err
			}()
			for _, i := range busy {
				waitUntil(t, fmt.Sprintf("engine %d to hold the frame", i), func() bool {
					return rt.Engine(i).Stats().Frames == 1
				})
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Fatalf("Router.Submit: %v, want context.Canceled", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("Router.Submit still blocked 5s after its context was cancelled: the context did not reach Engine.Submit")
			}
			s := rt.Stats()
			if c.path != nil && c.path(s) != 1 {
				t.Fatalf("path counter = %d, want 1 (the frame did not take the %s path)", c.path(s), c.name)
			}
			for i, es := range s.EngineStats {
				want := uint64(0)
				if slices.Contains(busy, i) {
					want = 1
				}
				if es.Canceled != want {
					t.Errorf("engine %d counted %d cancellations, want %d", i, es.Canceled, want)
				}
			}
			for _, g := range gates {
				close(g)
			}
			fillers.Wait()
		})
	}
}
