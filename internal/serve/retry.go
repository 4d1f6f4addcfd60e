package serve

import (
	"context"
	"errors"
	"math"
	"time"
)

// This file is the router's survivability layer (DESIGN.md §15): deadline-
// budgeted retries. A retry multiplies *attempts*, not offers — one offered
// request still terminates in exactly one accounting class, so the
// conservation law Offered = Completed + Failed + Sheds is untouched, and
// Retries is a separate attempt counter bounded by Max per request that
// reached an engine.

// RetryPolicy re-routes transient failures (ErrPanic, ErrStalled, and
// ErrQueueFull after spill exhaustion) to the next ring candidate after a
// seeded exponential backoff. Retries never outlive the request's deadline
// budget: a retry whose backoff would cross the remaining budget is not
// attempted, and each attempt's engine timeout is clipped to the remainder.
// Non-transient outcomes — ErrInvalidInput, ErrDeadline, the shed classes,
// ctx cancellation — are the frame's or caller's fault and never retried.
type RetryPolicy struct {
	// Max is the number of re-attempts after the first (default 2).
	Max int
	// Seed fixes the jitter schedule (default 1): a fixed seed makes retry
	// timing reproducible in tests.
	Seed uint64
}

// The retry backoff: retryBase doubled per attempt, capped at retryMax and
// jittered into [d/2, d) like the worker circuit breaker's park.
const (
	retryBase = time.Millisecond
	retryMax  = 50 * time.Millisecond
)

// Normalize fills the documented defaults in place. NewRouter normalizes its
// private copy; any other caller of Next normalizes first.
func (p *RetryPolicy) Normalize() {
	if p.Max <= 0 {
		p.Max = 2
	}
	if p.Seed == 0 {
		p.Seed = 1
	}
}

// NoDeadline is the remaining budget of a request that has no deadline.
const NoDeadline = time.Duration(math.MaxInt64)

// Next decides the re-attempt after `retried` earlier ones of submission seq
// (the jitter key): whether it may start, and after what backoff. It is
// denied once Max re-attempts are spent, and when the backoff would cross the
// remaining deadline budget — the last failure then stands. A nil policy
// never retries.
func (p *RetryPolicy) Next(retried int, seq uint64, remaining time.Duration) (wait time.Duration, ok bool) {
	if p == nil || retried >= p.Max {
		return 0, false
	}
	wait = jitteredBackoff(retryBase, retryMax, retried, p.Seed, seq)
	return wait, remaining > wait
}

// retryable reports whether a failed attempt may be re-routed: only
// failures that say "this engine, right now" — a panicked or stalled worker,
// or a full queue — can succeed elsewhere. Everything else is terminal.
func retryable(err error) bool {
	return errors.Is(err, ErrPanic) || errors.Is(err, ErrStalled) || errors.Is(err, ErrQueueFull)
}

// attempts is Submit's one attempt loop. The first attempt always runs, with
// the request as given. Each re-attempt needs a retryable failure and a grant
// from RetryPolicy.Next (a nil policy never grants one), rotates one
// candidate further along the ring than the last so a retry never hammers
// the engine that just failed it, and gets its engine timeout clipped to the
// request's remaining deadline budget. Every attempt spans the usual 1+Spill
// spillover window. The loop is synchronous: the router starts no goroutines
// of its own.
func (rt *Router) attempts(ctx context.Context, cand []int, req FleetRequest) (Result, error) {
	var seq uint64         // the jitter key
	var deadline time.Time // the request's budget; only re-attempts read it
	if rt.retry != nil {
		seq = rt.seq.Add(1)
		if req.Timeout > 0 {
			deadline = time.Now().Add(req.Timeout)
		}
		if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
			deadline = d
		}
	}
	for a := 0; ; a++ {
		res, err := rt.trySubmitFrom(ctx, cand, a, req)
		if err == nil || !retryable(err) {
			return res, err
		}
		remaining := NoDeadline
		if !deadline.IsZero() {
			remaining = time.Until(deadline)
		}
		wait, ok := rt.retry.Next(a, seq, remaining)
		if !ok {
			return res, err // retries or budget exhausted: the last failure stands
		}
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return res, err
		}
		if !deadline.IsZero() {
			if req.Timeout = time.Until(deadline); req.Timeout <= 0 {
				return res, err
			}
		}
		rt.retries.Add(1)
	}
}
