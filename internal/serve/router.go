package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
)

// Router is the fleet layer (DESIGN.md §13): it spreads tenant/stream keys
// across N engines with a consistent-hash ring, runs per-tenant QoS and
// fleet-wide priority shedding *before* any engine queue is touched, spills
// a frame to the next engines on the ring when its owner's queue is full,
// and quarantines an engine whose frames keep panicking (or stalling) so
// traffic re-routes around it. With a RetryPolicy (retry.go) the router also
// re-routes transient failures; a retry multiplies *attempts*, not offers, so
// every Submit still terminates in exactly one accounting class and
//
//	Offered = Completed + Failed + ShedThrottled + ShedOverload + ShedQueueFull
//
// holds at all times — the conservation law the chaos tests assert (see
// RouterStats.Conservation). Retries rides alongside as an attempt counter.

// Quarantine: failThreshold consecutive panic or stall failures from one
// engine take it out of routing for quarantineCooloff, after which it is
// probed again.
const (
	failThreshold     = 3
	quarantineCooloff = 2 * time.Second
)

// Spill is how many ring successors after the owner an attempt tries when
// the engines before them have full queues; past them the frame fails with
// ErrQueueFull. The loadgen simulator spills by the same constant.
const Spill = 1

// RouterConfig tunes the fleet layer. The zero value selects defaults; the
// ring's vnodes (DefaultVNodes), the spillover (Spill) and the shed
// controller's thresholds (shed.go) are constants.
type RouterConfig struct {
	// QoS, when non-nil, runs per-tenant token-bucket admission and supplies
	// each tenant's priority class. Nil admits everything at PriorityNormal.
	QoS *QoS
	// Retry, when non-nil, re-routes transient failures (panicked, stalled
	// or queue-full attempts) to further ring candidates under the request's
	// deadline budget. Nil — the default — keeps Submit single-attempt.
	Retry *RetryPolicy
	// Clock injects a time source for quarantine bookkeeping; nil: time.Now.
	Clock Clock
}

// FleetRequest is a Request plus the fleet routing identity.
type FleetRequest struct {
	Request
	// Tenant is the accounting and QoS identity: token bucket, priority
	// class, per-tenant outcome counts. Also the routing key when Stream is
	// empty.
	Tenant string
	// Stream, when set, is the routing key: all frames of one stream land on
	// the same engine (warm-cache affinity). Distinct streams of one tenant
	// may land on different engines.
	Stream string
}

// Router fans Submit calls out across a fleet of engines. Create with
// NewRouter; all methods are safe for concurrent use.
type Router struct {
	engines []*Engine
	ring    *Ring
	qos     *QoS
	shed    *ShedController
	now     Clock
	retry   *RetryPolicy // normalized private copy; nil when disabled
	seq     atomic.Uint64

	consecFail []atomic.Int32 // per-engine consecutive panic failures
	downUntil  []atomic.Int64 // per-engine quarantine deadline (unix ns)

	offered       atomic.Uint64
	completed     atomic.Uint64
	failed        atomic.Uint64
	shedThrottled atomic.Uint64
	shedOverload  atomic.Uint64
	shedQueueFull atomic.Uint64
	spills        atomic.Uint64
	quarantines   atomic.Uint64
	failOpen      atomic.Uint64
	retries       atomic.Uint64
	stalls        atomic.Uint64

	latency *metrics.LatencyWindow
	tenants *metrics.TenantWindows

	bufPool sync.Pool // *[]int candidate buffers

	mu     sync.Mutex
	closed bool
}

// NewRouter builds the fleet layer over a set of running engines. The
// router takes ownership for Close; engines must not be shared between
// routers.
func NewRouter(engines []*Engine, cfg RouterConfig) (*Router, error) {
	if len(engines) == 0 {
		return nil, fmt.Errorf("serve: router needs at least one engine")
	}
	for i, e := range engines {
		if e == nil {
			return nil, fmt.Errorf("serve: nil engine %d", i)
		}
		for j := 0; j < i; j++ {
			if engines[j] == e {
				return nil, fmt.Errorf("serve: engine %d duplicates engine %d", i, j)
			}
		}
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	ring, err := NewRing(len(engines), DefaultVNodes)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		engines:    engines,
		ring:       ring,
		qos:        cfg.QoS,
		shed:       NewShedController(),
		now:        cfg.Clock,
		consecFail: make([]atomic.Int32, len(engines)),
		downUntil:  make([]atomic.Int64, len(engines)),
		latency:    metrics.NewLatencyWindow(metrics.DefaultLatencyWindow),
		tenants:    metrics.NewTenantWindows(metrics.DefaultMaxTenants),
	}
	if cfg.Retry != nil {
		p := *cfg.Retry
		p.Normalize()
		rt.retry = &p
	}
	rt.bufPool.New = func() any {
		b := make([]int, 0, len(engines))
		return &b
	}
	return rt, nil
}

// Engines returns the fleet size.
func (rt *Router) Engines() int { return len(rt.engines) }

// Engine returns fleet member i, for per-engine stats inspection.
func (rt *Router) Engine(i int) *Engine { return rt.engines[i] }

// EngineFor reports which engine currently owns a routing key (quarantine
// and spillover ignored) — observability for tests and operators.
func (rt *Router) EngineFor(key string) int { return rt.ring.Lookup(key) }

// Quarantined reports whether engine i is currently quarantined.
func (rt *Router) Quarantined(i int) bool {
	return rt.downUntil[i].Load() > rt.now().UnixNano()
}

// fleetFill samples mean queue fill across non-quarantined engines; if the
// whole fleet is quarantined, across all of them.
func (rt *Router) fleetFill() float64 {
	var sum float64
	n := 0
	now := rt.now().UnixNano()
	for i, e := range rt.engines {
		if rt.downUntil[i].Load() > now {
			continue
		}
		sum += e.QueueFill()
		n++
	}
	if n == 0 {
		for _, e := range rt.engines {
			sum += e.QueueFill()
		}
		n = len(rt.engines)
	}
	return sum / float64(n)
}

// Submit routes one frame through QoS, the shed controller and the ring,
// and waits for its result like Engine.Submit. Error classes, all
// immediate except engine execution itself: ErrThrottled (tenant over
// rate), ErrShed (priority class shed under fleet overload), ErrQueueFull
// (owner and all spill candidates full), ErrClosed, plus every per-frame
// engine error (ErrInvalidInput, ErrDeadline, ErrPanic, ctx errors).
func (rt *Router) Submit(ctx context.Context, req FleetRequest) (Result, error) {
	rt.offered.Add(1)
	prio := PriorityNormal
	if rt.qos != nil {
		p, err := rt.qos.Admit(req.Tenant)
		if err != nil {
			rt.shedThrottled.Add(1)
			rt.tenants.Count(req.Tenant, metrics.TenantShed)
			return Result{}, err
		}
		prio = p
	}
	rt.shed.Observe(rt.fleetFill())
	if rt.shed.Sheds(prio) {
		rt.shedOverload.Add(1)
		rt.tenants.Count(req.Tenant, metrics.TenantShed)
		return Result{}, fmt.Errorf("%w: %s-priority tenant %q at shed level %d", ErrShed, prio, req.Tenant, rt.shed.Level())
	}
	key := req.Stream
	if key == "" {
		key = req.Tenant
	}
	want := 1 + Spill
	if rt.retry != nil {
		want += rt.retry.Max // each re-attempt rotates one candidate further
	}
	bufp := rt.bufPool.Get().(*[]int)
	cand := rt.ring.Candidates(key, want, *bufp)
	res, err := rt.attempts(ctx, cand, req)
	*bufp = cand[:0]
	rt.bufPool.Put(bufp)
	switch {
	case err == nil:
		rt.completed.Add(1)
		rt.latency.Observe(res.Total)
		rt.tenants.Count(req.Tenant, metrics.TenantCompleted)
	case errors.Is(err, ErrQueueFull):
		rt.shedQueueFull.Add(1)
		rt.tenants.Count(req.Tenant, metrics.TenantShed)
	default:
		rt.failed.Add(1)
		rt.tenants.Count(req.Tenant, metrics.TenantFailed)
	}
	return res, err
}

// trySubmitFrom walks 1+Spill candidate engines starting at ring position
// start (wrapping): quarantined engines are skipped (unless every walked
// candidate is quarantined, in which case the router fails open and uses
// the walk's first engine anyway — a fully-down fleet should surface engine
// errors, not mask them as sheds), and a full queue spills to the next
// candidate. The first engine that admits the frame decides the outcome.
// The first attempt walks from 0; re-attempts rotate start so a retry lands
// on fresh engines first.
func (rt *Router) trySubmitFrom(ctx context.Context, cand []int, start int, req FleetRequest) (Result, error) {
	now := rt.now().UnixNano()
	var res Result
	err := error(ErrQueueFull)
	tried := 0
	span := min(1+Spill, len(cand))
	first := cand[start%len(cand)]
	for i := 0; i < span; i++ {
		id := cand[(start+i)%len(cand)]
		if rt.downUntil[id].Load() > now {
			continue
		}
		if i > 0 {
			rt.spills.Add(1)
		}
		tried++
		res, err = rt.engines[id].Submit(ctx, req.Request)
		if errors.Is(err, ErrQueueFull) {
			continue
		}
		rt.noteOutcome(id, err)
		return res, err
	}
	if tried > 0 {
		return res, err
	}
	// Whole candidate set quarantined: fail open through the walk's first
	// engine so a fully-down fleet surfaces engine errors instead of
	// masking them.
	rt.failOpen.Add(1)
	res, err = rt.engines[first].Submit(ctx, req.Request)
	if !errors.Is(err, ErrQueueFull) {
		rt.noteOutcome(first, err)
	}
	return res, err
}

// noteOutcome updates an engine's health from one terminal result: a panic
// or stall failure counts toward quarantine (both say "this engine is
// sick"), anything else (success, deadline, invalid input, ctx
// cancellation) resets the streak — those are the frame's or caller's
// fault, not the engine's.
func (rt *Router) noteOutcome(id int, err error) {
	if err != nil && errors.Is(err, ErrStalled) {
		rt.stalls.Add(1)
	}
	if err == nil || (!errors.Is(err, ErrPanic) && !errors.Is(err, ErrStalled)) {
		rt.consecFail[id].Store(0)
		return
	}
	if rt.consecFail[id].Add(1) < failThreshold {
		return
	}
	rt.consecFail[id].Store(0)
	rt.downUntil[id].Store(rt.now().Add(quarantineCooloff).UnixNano())
	rt.quarantines.Add(1)
}

// Close closes every engine in the fleet, draining their queues. Safe to
// call once; a second Close returns ErrClosed.
func (rt *Router) Close() error {
	rt.mu.Lock()
	if rt.closed {
		rt.mu.Unlock()
		return ErrClosed
	}
	rt.closed = true
	rt.mu.Unlock()
	var first error
	for _, e := range rt.engines {
		if err := e.Close(); err != nil && first == nil && !errors.Is(err, ErrClosed) {
			first = err
		}
	}
	return first
}

// RouterStats is a point-in-time snapshot of the fleet.
type RouterStats struct {
	Engines int

	Offered       uint64 // Submit calls
	Completed     uint64 // frames served successfully (any tier)
	Failed        uint64 // frames that reached an engine and failed
	ShedThrottled uint64 // dropped by tenant token buckets (ErrThrottled)
	ShedOverload  uint64 // dropped by the fleet shed controller (ErrShed)
	ShedQueueFull uint64 // owner and spill candidates all full (ErrQueueFull)
	Spills        uint64 // submissions routed past the key's owner
	Quarantines   uint64 // engine quarantine events
	FailOpen      uint64 // submissions with the whole candidate set down
	Retries       uint64 // re-attempts launched by the retry policy
	Stalls        uint64 // terminal attempts that failed with ErrStalled

	Shed        ShedStats
	QoS         QoSStats
	Quarantined []bool // per-engine quarantine state

	Latency metrics.LatencySnapshot           // fleet-wide completion latency
	Tenants map[string]metrics.TenantSnapshot // per-tenant outcome counters

	EngineStats []Stats // per-engine counters
}

// Conservation checks the router's accounting invariants on a quiescent
// snapshot (no Submit in flight): every offered request terminated in
// exactly one class. Retries is an attempt counter — it multiplies work,
// never offers — so it does not appear in the law.
func (s RouterStats) Conservation() error {
	terminal := s.Completed + s.Failed + s.ShedThrottled + s.ShedOverload + s.ShedQueueFull
	if s.Offered != terminal {
		return fmt.Errorf("serve: conservation violated: offered %d != completed %d + failed %d + shed %d/%d/%d = %d",
			s.Offered, s.Completed, s.Failed, s.ShedThrottled, s.ShedOverload, s.ShedQueueFull, terminal)
	}
	return nil
}

// Stats snapshots the router and every engine.
func (rt *Router) Stats() RouterStats {
	s := RouterStats{
		Engines:       len(rt.engines),
		Offered:       rt.offered.Load(),
		Completed:     rt.completed.Load(),
		Failed:        rt.failed.Load(),
		ShedThrottled: rt.shedThrottled.Load(),
		ShedOverload:  rt.shedOverload.Load(),
		ShedQueueFull: rt.shedQueueFull.Load(),
		Spills:        rt.spills.Load(),
		Quarantines:   rt.quarantines.Load(),
		FailOpen:      rt.failOpen.Load(),
		Retries:       rt.retries.Load(),
		Stalls:        rt.stalls.Load(),
		Shed:          rt.shed.Stats(),
		Latency:       rt.latency.Snapshot(),
		Tenants:       rt.tenants.Snapshot(),
	}
	if rt.qos != nil {
		s.QoS = rt.qos.Stats()
	}
	now := rt.now().UnixNano()
	s.Quarantined = make([]bool, len(rt.engines))
	s.EngineStats = make([]Stats, len(rt.engines))
	for i, e := range rt.engines {
		s.Quarantined[i] = rt.downUntil[i].Load() > now
		s.EngineStats[i] = e.Stats()
	}
	return s
}
