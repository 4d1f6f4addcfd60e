package serve

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/edgesim"
	"repro/internal/pipeline"
)

// TestServeRaceStress hammers a real two-replica engine from many goroutines
// while deadlines fire and Close races with in-flight submissions. Its value
// is under `go test -race` (scripts/ci.sh runs it there): it sweeps the
// weight-sharing replicas, the workspace reuse inside each worker, the
// queue/close handshake and the atomic counters for data races.
func TestServeRaceStress(t *testing.T) {
	w, opts := serveWorkload()
	nets, err := pipeline.Replicas(w, pipeline.SN, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	// A real device exercises PriceTrace concurrently from both workers
	// (read-only by contract — the race detector holds it to that).
	dev := edgesim.JetsonAGXXavier()
	e, err := New(nets, dev, pipeline.SimConfig(w, pipeline.SN, opts), Config{
		QueueDepth:  8,
		MaxBatch:    3,
		BatchWindow: 200 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := pipeline.Frame(w, 11)
	if err != nil {
		t.Fatal(err)
	}

	const (
		clients    = 6
		perClient  = 15
		totalTries = clients * perClient
	)
	var ok, full, closed, timedOut, canceled, other atomic.Uint64
	var done atomic.Uint64 // submissions finished, any outcome
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				req := Request{Cloud: frame}
				ctx := context.Background()
				switch {
				case i%7 == 3:
					// An already-lapsed deadline: the worker must drop it.
					req.Timeout = time.Nanosecond
				case i%7 == 5:
					// A context that dies while the frame is queued or running.
					var cancel context.CancelFunc
					ctx, cancel = context.WithTimeout(ctx, 50*time.Microsecond)
					defer cancel()
				}
				res, err := e.Submit(ctx, req)
				switch {
				case err == nil:
					if res.Output == nil || res.Output.Logits == nil {
						t.Errorf("client %d: ok result without logits", c)
					}
					ok.Add(1)
				case errors.Is(err, ErrQueueFull):
					full.Add(1)
				case errors.Is(err, ErrClosed):
					closed.Add(1)
				case errors.Is(err, ErrDeadline):
					timedOut.Add(1)
				case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
					canceled.Add(1)
				default:
					other.Add(1)
					t.Errorf("client %d: unexpected error %v", c, err)
				}
				done.Add(1)
			}
		}(c)
	}
	// Close mid-flight: roughly half the traffic should land after shutdown.
	for done.Load() < totalTries/2 {
		time.Sleep(100 * time.Microsecond)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	if got := ok.Load() + full.Load() + closed.Load() + timedOut.Load() + canceled.Load() + other.Load(); got != totalTries {
		t.Fatalf("accounted %d of %d submissions", got, totalTries)
	}
	s := e.Stats()
	if s.Failed != 0 {
		t.Fatalf("%d frames failed in the forward pass", s.Failed)
	}
	// A frame whose context dies mid-forward still completes in the engine
	// while its caller has already left with the context error.
	if s.Completed < ok.Load() || s.Completed > ok.Load()+canceled.Load() {
		t.Fatalf("stats completed=%d, callers saw %d ok and %d canceled", s.Completed, ok.Load(), canceled.Load())
	}
	if s.Completed+s.TimedOut > s.Submitted {
		t.Fatalf("served %d+%d frames but only %d admitted", s.Completed, s.TimedOut, s.Submitted)
	}
	if s.QueueLen != 0 {
		t.Fatalf("queue not drained after Close: %d", s.QueueLen)
	}
	t.Logf("ok=%d full=%d closed=%d deadline=%d ctx=%d; stats=%+v",
		ok.Load(), full.Load(), closed.Load(), timedOut.Load(), canceled.Load(), s)
}

// TestServeStubShutdownRace drives the pure engine machinery (stub nets, no
// model) with submitters racing Close directly — maximal pressure on the
// admission/close handshake without forward-pass time dominating.
func TestServeStubShutdownRace(t *testing.T) {
	for round := 0; round < 20; round++ {
		e := newStubEngine(t, nil, Config{QueueDepth: 4, MaxBatch: 2})
		cloud := testCloud()
		var wg sync.WaitGroup
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 10; i++ {
					_, err := e.Submit(context.Background(), Request{Cloud: cloud})
					if err != nil && !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrClosed) {
						t.Errorf("unexpected error: %v", err)
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := e.Close(); err != nil {
				t.Errorf("close: %v", err)
			}
		}()
		wg.Wait()
	}
}
