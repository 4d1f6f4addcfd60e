package serve

import (
	"context"
	"errors"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// stubNet is a pipeline.Net whose Forward blocks on gate (when non-nil)
// until the test releases it — the lever that makes queue-full, deadline and
// scheduling scenarios deterministic instead of timing-dependent.
type stubNet struct {
	gate chan struct{}
}

func (s *stubNet) Forward(cloud *geom.Cloud, trace *model.Trace, train bool) (*model.Output, error) {
	if s.gate != nil {
		<-s.gate
	}
	return &model.Output{Logits: tensor.New(1, 2)}, nil
}

func (s *stubNet) Backward(grad *tensor.Matrix) error { return nil }
func (s *stubNet) Params() []*nn.Param                { return nil }

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(200 * time.Microsecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// testCloud is a minimal valid frame for stub engines.
func testCloud() *geom.Cloud {
	c := geom.NewCloud(4, 0)
	for i := range c.Points {
		c.Points[i] = geom.Point3{X: float64(i), Y: 1, Z: 2}
	}
	return c
}

func newStubEngine(t *testing.T, gate chan struct{}, cfg Config) *Engine {
	t.Helper()
	e, err := NewEngine([]pipeline.Net{&stubNet{gate: gate}}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// breakerOff is a circuit-breaker trip count no failure streak reaches, for
// tests that isolate another recovery path from the breaker's parks.
const breakerOff = math.MaxInt32

// newBreakerOffEngine is newStubEngine (ungated) with the circuit breaker
// switched off.
func newBreakerOffEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e, err := newEngine([]pipeline.Net{&stubNet{}}, cfg, breakerOff)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestSubmitServes(t *testing.T) {
	e := newStubEngine(t, nil, Config{})
	defer e.Close()
	cloud := testCloud()
	for i := 0; i < 5; i++ {
		res, err := e.Submit(context.Background(), Request{Cloud: cloud})
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if res.Output == nil || res.Output.Logits == nil {
			t.Fatalf("submit %d: no logits", i)
		}
		if res.Worker != 0 {
			t.Fatalf("submit %d: worker=%d", i, res.Worker)
		}
		if res.Total < res.Wait || res.Total <= 0 {
			t.Fatalf("submit %d: total=%v wait=%v", i, res.Total, res.Wait)
		}
	}
	s := e.Stats()
	if s.Completed != 5 || s.Submitted != 5 || s.Latency.Count != 5 {
		t.Fatalf("stats: %+v", s)
	}
	if s.Workers != 1 {
		t.Fatalf("workers = %d", s.Workers)
	}
}

func TestSubmitEmptyCloud(t *testing.T) {
	e := newStubEngine(t, nil, Config{})
	defer e.Close()
	if _, err := e.Submit(context.Background(), Request{}); err == nil {
		t.Fatal("nil cloud accepted")
	}
	if _, err := e.Submit(context.Background(), Request{Cloud: geom.NewCloud(0, 0)}); err == nil {
		t.Fatal("empty cloud accepted")
	}
}

func TestBackpressureRejectsWhenFull(t *testing.T) {
	gate := make(chan struct{})
	e := newStubEngine(t, gate, Config{QueueDepth: 2})
	cloud := testCloud()
	var wg sync.WaitGroup
	results := make(chan error, 3)
	submit := func() {
		defer wg.Done()
		_, err := e.Submit(context.Background(), Request{Cloud: cloud})
		results <- err
	}
	// A occupies the worker (blocked in Forward).
	wg.Add(1)
	go submit()
	waitUntil(t, "worker to pick up frame A", func() bool { return e.Stats().Frames == 1 })
	// B and C fill the depth-2 queue.
	wg.Add(2)
	go submit()
	go submit()
	waitUntil(t, "queue to fill", func() bool { return e.Stats().QueueLen == 2 })
	// D must be rejected immediately, without blocking.
	start := time.Now()
	_, err := e.Submit(context.Background(), Request{Cloud: cloud})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: %v, want ErrQueueFull", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("rejection took %v; admission must not block", d)
	}
	for i := 0; i < 3; i++ {
		gate <- struct{}{}
	}
	wg.Wait()
	close(results)
	for err := range results {
		if err != nil {
			t.Fatalf("admitted frame failed: %v", err)
		}
	}
	s := e.Stats()
	if s.Rejected != 1 || s.Completed != 3 {
		t.Fatalf("rejected=%d completed=%d, want 1/3", s.Rejected, s.Completed)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlineDropsStaleFrame(t *testing.T) {
	gate := make(chan struct{})
	e := newStubEngine(t, gate, Config{QueueDepth: 4})
	cloud := testCloud()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); err != nil {
			t.Errorf("frame A: %v", err)
		}
	}()
	waitUntil(t, "worker to pick up frame A", func() bool { return e.Stats().Frames == 1 })
	errB := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := e.Submit(context.Background(), Request{Cloud: cloud, Timeout: time.Millisecond})
		errB <- err
	}()
	waitUntil(t, "frame B to queue", func() bool { return e.Stats().QueueLen == 1 })
	time.Sleep(5 * time.Millisecond) // let B's deadline lapse while queued
	gate <- struct{}{}               // release A; B is dropped without running
	wg.Wait()
	if err := <-errB; !errors.Is(err, ErrDeadline) {
		t.Fatalf("frame B: %v, want ErrDeadline", err)
	}
	s := e.Stats()
	if s.TimedOut != 1 || s.Completed != 1 {
		t.Fatalf("timedOut=%d completed=%d, want 1/1", s.TimedOut, s.Completed)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestContextCancelAbandonsFrame(t *testing.T) {
	gate := make(chan struct{})
	e := newStubEngine(t, gate, Config{QueueDepth: 4})
	cloud := testCloud()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); err != nil {
			t.Errorf("frame A: %v", err)
		}
	}()
	waitUntil(t, "worker to pick up frame A", func() bool { return e.Stats().Frames == 1 })
	ctx, cancel := context.WithCancel(context.Background())
	errB := make(chan error, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, err := e.Submit(ctx, Request{Cloud: cloud})
		errB <- err
	}()
	waitUntil(t, "frame B to queue", func() bool { return e.Stats().QueueLen == 1 })
	cancel()
	if err := <-errB; !errors.Is(err, context.Canceled) {
		t.Fatalf("frame B: %v, want context.Canceled", err)
	}
	gate <- struct{}{} // release A; worker then skips the abandoned B
	wg.Wait()
	if err := e.Close(); err != nil { // Close drains: worker has consumed B
		t.Fatal(err)
	}
	s := e.Stats()
	if s.Canceled != 1 || s.Completed != 1 {
		t.Fatalf("canceled=%d completed=%d, want 1/1", s.Canceled, s.Completed)
	}
}

// TestQueuedFramesGoToEveryFreeWorker pins one frame per pickup: with both
// workers of a two-worker engine busy, frames C and D queue; when worker 0
// frees up it takes C alone, so D goes to worker 1 as soon as that frees up,
// instead of waiting behind C on worker 0 while worker 1 idles.
func TestQueuedFramesGoToEveryFreeWorker(t *testing.T) {
	gates := []chan struct{}{make(chan struct{}), make(chan struct{})}
	e, err := NewEngine([]pipeline.Net{&stubNet{gate: gates[0]}, &stubNet{gate: gates[1]}}, Config{QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	open := []bool{true, true}
	release := func(i int) {
		if open[i] {
			open[i] = false
			close(gates[i])
		}
	}
	defer func() {
		release(0) // a failure may leave a worker parked
		release(1)
		e.Close()
	}()
	cloud := testCloud()
	workers := make([]chan int, 4)
	submit := func(i int) {
		workers[i] = make(chan int, 1)
		go func() {
			res, err := e.Submit(context.Background(), Request{Cloud: cloud})
			if err != nil {
				t.Errorf("frame %c: %v", 'A'+i, err)
			}
			workers[i] <- res.Worker
		}()
	}
	// A and B occupy both workers; C then D queue behind them.
	submit(0)
	submit(1)
	waitUntil(t, "both workers to pick up A and B", func() bool { return e.Stats().Frames == 2 })
	submit(2)
	waitUntil(t, "C to queue", func() bool { return e.Stats().QueueLen == 1 })
	submit(3)
	waitUntil(t, "D to queue", func() bool { return e.Stats().QueueLen == 2 })
	gates[0] <- struct{}{} // worker 0 finishes its frame and takes the next
	waitUntil(t, "worker 0 to pick up C", func() bool { return e.Stats().Frames >= 3 })
	release(1) // worker 1 finishes and serves whatever is still queued
	waitUntil(t, "every frame to be picked up", func() bool { return e.Stats().Frames == 4 })
	release(0)
	got := make([]int, len(workers))
	for i, c := range workers {
		got[i] = <-c
	}
	if got[2] != 0 || got[3] != 1 {
		t.Fatalf("C served by worker %d and D by worker %d, want 0 and 1: a frame queued behind a busy worker must go to the next free one", got[2], got[3])
	}
	if s := e.Stats(); s.Frames != 4 || s.Batches != s.Frames {
		t.Fatalf("frames=%d batches=%d, want 4 each (one frame per pickup)", s.Frames, s.Batches)
	}
}

func TestCloseDrainsAndRejectsNewWork(t *testing.T) {
	e := newStubEngine(t, nil, Config{QueueDepth: 16})
	cloud := testCloud()
	const n = 24
	var wg sync.WaitGroup
	var ok, closed, full atomic.Uint64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := e.Submit(context.Background(), Request{Cloud: cloud})
			switch {
			case err == nil:
				ok.Add(1)
			case errors.Is(err, ErrClosed):
				closed.Add(1)
			case errors.Is(err, ErrQueueFull):
				full.Add(1)
			default:
				t.Errorf("unexpected submit error: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got := ok.Load() + closed.Load() + full.Load(); got != n {
		t.Fatalf("accounted %d of %d submits", got, n)
	}
	s := e.Stats()
	if s.Completed != ok.Load() {
		t.Fatalf("completed=%d, want %d", s.Completed, ok.Load())
	}
	if _, err := e.Submit(context.Background(), Request{Cloud: cloud}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close submit: %v, want ErrClosed", err)
	}
	if err := e.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v, want ErrClosed", err)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := NewEngine(nil, Config{}); err == nil {
		t.Fatal("empty replica list accepted")
	}
	if _, err := NewEngine([]pipeline.Net{nil}, Config{}); err == nil {
		t.Fatal("nil replica accepted")
	}
	n := &stubNet{}
	if _, err := NewEngine([]pipeline.Net{n, n}, Config{}); err == nil {
		t.Fatal("duplicate replica accepted")
	}
}
