package serve

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"
)

// This file is the router's survivability layer (DESIGN.md §15): deadline-
// budgeted retries and tail-latency hedging. Both are *attempt* multipliers —
// one offered request still terminates in exactly one accounting class, so
// the conservation law Offered = Completed + Failed + Sheds is untouched;
// Retries/Hedges/HedgeWins are separate attempt counters bounded by it
// (HedgeWins <= Hedges, and hedges are capped to a fraction of Offered).

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
	// BackoffBase is the first retry's backoff; it doubles per attempt up to
	// BackoffMax, jittered into [d/2, d) like the worker circuit breaker.
	// Defaults 1ms / 50ms.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed fixes the jitter schedule (default 1): a fixed seed makes retry
	// timing reproducible in tests.
	Seed uint64
}

// Normalize fills the documented defaults in place. NewRouter normalizes its
// private copy; any other caller of Next normalizes first.
func (p *RetryPolicy) Normalize() {
	if p.Max <= 0 {
		p.Max = 2
	}
	if p.BackoffBase <= 0 {
		p.BackoffBase = time.Millisecond
	}
	if p.BackoffMax < p.BackoffBase {
		p.BackoffMax = 50 * time.Millisecond
		if p.BackoffMax < p.BackoffBase {
			p.BackoffMax = p.BackoffBase
		}
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
	wait = jitteredBackoff(p.BackoffBase, p.BackoffMax, retried, p.Seed, seq)
	return wait, remaining > wait
}

// HedgePolicy duplicates a slow in-flight request on the next ring candidate
// after Delay; the first result wins and the loser is cancelled. Hedging
// trades bounded extra load for tail latency, so it is budgeted (MaxFraction
// of offered traffic) and disengages entirely while the fleet shed
// controller is shedding — a hedge under overload is fuel on the fire.
type HedgePolicy struct {
	// Delay is how long the primary attempt may run before a hedge launches.
	// Zero derives it from the router's observed p99 completion latency; a
	// cold window (no samples yet) hedges nothing.
	Delay time.Duration
	// MaxFraction caps launched hedges as a fraction of offered requests
	// (default 0.05, clamped to [0, 1]).
	MaxFraction float64
}

// Normalize fills the documented defaults in place, like
// RetryPolicy.Normalize.
func (p *HedgePolicy) Normalize() {
	if p.MaxFraction <= 0 {
		p.MaxFraction = 0.05
	}
	if p.MaxFraction > 1 {
		p.MaxFraction = 1
	}
}

// MayLaunch gates one more hedge launch, given the hedges launched and the
// requests offered so far and the fleet shed level: never while the shed
// controller is engaged, and never past the MaxFraction budget of offered
// traffic.
func (p *HedgePolicy) MayLaunch(hedges, offered uint64, shedLevel int) bool {
	if shedLevel > 0 {
		return false
	}
	return float64(hedges+1) <= p.MaxFraction*float64(offered)
}

// retryable reports whether a failed attempt may be re-routed: only
// failures that say "this engine, right now" — a panicked or stalled worker,
// or a full queue — can succeed elsewhere. Everything else is terminal.
func retryable(err error) bool {
	return errors.Is(err, ErrPanic) || errors.Is(err, ErrStalled) || errors.Is(err, ErrQueueFull)
}

// attemptOutcome is one attempt's terminal result, raced over a buffered
// channel when hedging is live.
type attemptOutcome struct {
	res    Result
	err    error
	hedged bool
}

// submitSurvivable is Submit's slow path, taken only when a RetryPolicy or
// HedgePolicy is configured: up to 1+Retry.Max attempts, each rotated one
// candidate further along the ring than the last so a retry never hammers
// the engine that just failed it, each spanning the usual 1+Spill spillover
// window, each individually hedgeable. seq is the per-submission jitter key.
func (rt *Router) submitSurvivable(ctx context.Context, cand []int, req FleetRequest, seq uint64) (Result, error) {
	var deadline time.Time
	if req.Timeout > 0 {
		deadline = time.Now().Add(req.Timeout)
	}
	if d, ok := ctx.Deadline(); ok && (deadline.IsZero() || d.Before(deadline)) {
		deadline = d
	}
	budget := func() time.Duration {
		if deadline.IsZero() {
			return NoDeadline
		}
		return time.Until(deadline)
	}
	span := 1 + rt.cfg.Spill
	var res Result
	var err error
	for a := 0; ; a++ {
		areq := req
		if !deadline.IsZero() {
			if areq.Timeout = budget(); areq.Timeout <= 0 {
				return res, err
			}
		}
		res, err = rt.attempt(ctx, cand, a, span, areq)
		if err == nil || !retryable(err) {
			return res, err
		}
		wait, ok := rt.retry.Next(a, seq, budget())
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
		timer.Stop()
		rt.retries.Add(1)
	}
}

// attempt runs one (possibly hedged) attempt starting at ring candidate
// `start`. Without a live hedge window this is a plain synchronous walk —
// no goroutines, no channel.
func (rt *Router) attempt(ctx context.Context, cand []int, start, span int, req FleetRequest) (Result, error) {
	delay := rt.hedgeDelay()
	if delay <= 0 || len(cand) < 2 || !rt.canHedge() {
		return rt.trySubmitFrom(ctx, cand, start, span, req)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel() // the loser is cancelled the moment a winner returns
	ch := make(chan attemptOutcome, 2)
	go rt.runAttempt(cctx, cand, start, span, req, ch, false)
	timer := time.NewTimer(delay)
	defer timer.Stop()
	pending := 1
	var firstRes Result
	var firstErr error
	haveErr := false
	for {
		select {
		case out := <-ch:
			pending--
			if out.err == nil {
				if out.hedged {
					rt.hedgeWins.Add(1)
				}
				return out.res, nil
			}
			if !haveErr {
				firstRes, firstErr, haveErr = out.res, out.err, true
			}
			if pending == 0 {
				return firstRes, firstErr
			}
		case <-timer.C:
			// The primary is slow: duplicate it one candidate further along,
			// re-checking the budget at launch time (shed level and the
			// hedge-fraction cap may have moved since Submit admitted us).
			if pending == 1 && rt.canHedge() {
				rt.hedges.Add(1)
				pending++
				go rt.runAttempt(cctx, cand, start+1, span, req, ch, true)
			}
		}
	}
}

// runAttempt is the goroutine body for one raced attempt. The leading
// deferred guard keeps a panicking attempt from taking the process down
// (package invariant, enforced by the gorecover analyzer); the buffered
// channel (cap 2 for 2 attempts) means the send never blocks, so a loser
// finishing after the winner just parks its outcome and exits.
func (rt *Router) runAttempt(ctx context.Context, cand []int, start, span int, req FleetRequest, ch chan<- attemptOutcome, hedged bool) {
	defer rt.recoverAttempt(ch, hedged)
	res, err := rt.trySubmitFrom(ctx, cand, start, span, req)
	ch <- attemptOutcome{res: res, err: err, hedged: hedged}
}

// recoverAttempt converts a panicking attempt into an ErrPanic outcome so
// the racing side of attempt() always hears back.
func (rt *Router) recoverAttempt(ch chan<- attemptOutcome, hedged bool) {
	if v := recover(); v != nil {
		ch <- attemptOutcome{err: fmt.Errorf("%w: router attempt: %v", ErrPanic, v), hedged: hedged}
	}
}

// hedgeDelay resolves the hedge trigger: the configured delay, or the
// fleet's observed p99 completion latency when unset. Zero (hedging off, or
// a cold latency window) disables hedging for this attempt.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.hedge == nil {
		return 0
	}
	if rt.hedge.Delay > 0 {
		return rt.hedge.Delay
	}
	snap := rt.latency.Snapshot()
	if snap.Window == 0 {
		return 0
	}
	return snap.P99
}

// canHedge asks the hedge policy whether one more hedge may launch now.
func (rt *Router) canHedge() bool {
	return rt.hedge.MayLaunch(rt.hedges.Load(), rt.offered.Load(), rt.shed.Level())
}
