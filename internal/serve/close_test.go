package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// within runs f and fails the test, naming what, if f has not returned after
// d — a bounded wait, so a wedged shutdown fails instead of hanging the suite.
func within(t *testing.T, d time.Duration, what string, f func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		f()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("%s: still blocked after %v", what, d)
	}
}

// watchdogsRunning counts the goroutines currently inside an engine's stall
// watchdog.
func watchdogsRunning() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("serve.(*Engine).watchdog("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestSubmitOutcomesCloseClean drives Engine.Submit out through each of its
// outcomes short of serving — invalid input, queue full, closed, deadline,
// cancelled — and then requires Close to return within seconds with no
// contained panic on record, with and without the stall watchdog armed. An
// exit that keeps the admission read lock blocks Close; a watchdog started
// without its WaitGroup slot drives the counter negative at shutdown, which
// crashes the test binary.
func TestSubmitOutcomesCloseClean(t *testing.T) {
	cloud := testCloud()
	bg := context.Background()
	type parkFunc func(ctx context.Context, req Request) <-chan error
	// occupy parks one frame in the gated worker, so the next admitted frame
	// stays queued.
	occupy := func(t *testing.T, e *Engine, park parkFunc) {
		park(bg, Request{Cloud: cloud})
		waitUntil(t, "worker to pick up the first frame", func() bool { return e.Stats().Batches == 1 })
	}
	cases := []struct {
		name  string
		drive func(t *testing.T, e *Engine, gate chan struct{}, park parkFunc) error
		want  error
	}{
		{"invalid-input", func(t *testing.T, e *Engine, gate chan struct{}, park parkFunc) error {
			_, err := e.Submit(bg, Request{})
			return err
		}, ErrInvalidInput},
		{"queue-full", func(t *testing.T, e *Engine, gate chan struct{}, park parkFunc) error {
			occupy(t, e, park)
			park(bg, Request{Cloud: cloud})
			waitUntil(t, "queue to fill", func() bool { return e.Stats().QueueLen == 1 })
			_, err := e.Submit(bg, Request{Cloud: cloud})
			return err
		}, ErrQueueFull},
		{"closed", func(t *testing.T, e *Engine, gate chan struct{}, park parkFunc) error {
			var err error
			within(t, 5*time.Second, "closed: first Close", func() { err = e.Close() })
			if err != nil {
				return err
			}
			_, err = e.Submit(bg, Request{Cloud: cloud})
			return err
		}, ErrClosed},
		{"deadline", func(t *testing.T, e *Engine, gate chan struct{}, park parkFunc) error {
			occupy(t, e, park)
			late := park(bg, Request{Cloud: cloud, Timeout: time.Millisecond})
			waitUntil(t, "frame to queue", func() bool { return e.Stats().QueueLen == 1 })
			time.Sleep(5 * time.Millisecond)
			gate <- struct{}{} // release the first frame; the late one is dropped
			return <-late
		}, ErrDeadline},
		{"cancelled", func(t *testing.T, e *Engine, gate chan struct{}, park parkFunc) error {
			occupy(t, e, park)
			ctx, cancel := context.WithCancel(bg)
			abandoned := park(ctx, Request{Cloud: cloud})
			waitUntil(t, "frame to queue", func() bool { return e.Stats().QueueLen == 1 })
			cancel()
			return <-abandoned
		}, context.Canceled},
	}
	for _, stall := range []time.Duration{0, time.Minute} {
		for _, c := range cases {
			t.Run(fmt.Sprintf("%s/stall=%v", c.name, stall), func(t *testing.T) {
				watchdogs := watchdogsRunning()
				gate := make(chan struct{})
				release := sync.OnceFunc(func() { close(gate) })
				t.Cleanup(release)
				e := newStubEngine(t, gate, Config{QueueDepth: 1, MaxBatch: 1, StallTimeout: stall})
				var parked sync.WaitGroup
				park := func(ctx context.Context, req Request) <-chan error {
					res := make(chan error, 1)
					parked.Add(1)
					go func() {
						defer parked.Done()
						_, err := e.Submit(ctx, req)
						res <- err
					}()
					return res
				}
				if err := c.drive(t, e, gate, park); !errors.Is(err, c.want) {
					t.Fatalf("Submit: %v, want %v", err, c.want)
				}
				release()
				within(t, 5*time.Second, c.name+": parked submitters", parked.Wait)
				var closeErr error
				within(t, 5*time.Second, c.name+": Close", func() { closeErr = e.Close() })
				var wantClose error
				if c.want == ErrClosed {
					wantClose = ErrClosed // the drive closed it already
				}
				if !errors.Is(closeErr, wantClose) {
					t.Fatalf("Close: %v, want %v", closeErr, wantClose)
				}
				// Close returns once the WaitGroup reaches zero, which a surplus
				// Done can make happen before the watchdog has exited: wait for
				// it, so Stats is read after every goroutine that could record
				// a panic.
				waitUntil(t, "stall watchdog to exit", func() bool { return watchdogsRunning() <= watchdogs })
				if s := e.Stats(); s.Panics != 0 || s.LastPanic != "" {
					t.Fatalf("%s: %d contained panic(s) by shutdown, last: %s", c.name, s.Panics, s.LastPanic)
				}
			})
		}
	}
}
