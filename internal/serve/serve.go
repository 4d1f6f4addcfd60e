// Package serve is the concurrent inference engine: the layer that turns the
// one-frame-at-a-time pipeline of internal/pipeline into a sustained-traffic
// server, the deployment shape EdgePC targets (streaming frames on a
// constrained device, where queueing, deadlines and graceful overload
// behavior matter as much as per-frame latency).
//
// Architecture (DESIGN.md §9, fault model §11):
//
//   - A sharded worker pool: each worker goroutine owns one model replica
//     (weights shared read-only across replicas via nn.ShareParams — see
//     pipeline.Replicas) and, inside it, one long-lived tensor.Workspace, so
//     the zero-allocation steady state of the single-frame hot path holds
//     per goroutine with no cross-worker synchronization.
//   - A bounded submission queue with reject-on-full backpressure: Submit
//     never blocks the caller on admission — a full queue returns
//     ErrQueueFull immediately and the caller sheds or retries.
//   - Input admission: frames are validated at Submit (non-finite
//     coordinates, empty/oversized clouds, degenerate bounding boxes, shape
//     mismatches) and rejected with ErrInvalidInput before a worker is
//     burned — see admission.go.
//   - Per-request deadlines: a frame whose deadline passed while queued is
//     dropped with ErrDeadline instead of wasting a worker on a stale result.
//   - One frame per pickup: a worker takes the next queued frame, runs it,
//     and only then takes another, so a frame queued while one worker is
//     busy goes to the next worker that frees up.
//   - Panic isolation: every frame runs under a recover wrapper; a panic
//     fails that one request with ErrPanic (stack captured in Stats), the
//     worker's replica is quarantined and rebuilt via Config.Rebuild, and
//     repeated panics trip a per-worker circuit breaker with exponential
//     backoff — see resilience.go.
//   - A stall watchdog: every worker stamps an atomic frame-start heartbeat;
//     a watchdog goroutine detects a worker wedged past Config.StallTimeout,
//     fails its in-flight frame with ErrStalled (exactly-once delivery via a
//     per-request CAS), counts the stall toward the circuit breaker, and
//     respawns the pool slot with rebuilt replicas — see watchdog.go.
//   - A degradation ladder: when queue depth crosses the high watermark the
//     engine steps down to a cheaper approximation tier (Config.Degrade)
//     instead of rejecting, and steps back up with hysteresis as load
//     drains. The engine takes any number of tiers; which approximations
//     are worth one is pipeline.DegradeTiers' decision (today one rung for
//     PointNet++, none for DGCNN). Results carry the tier they were served
//     at. When to step is the Ladder value's decision — see ladder.go.
//   - Graceful shutdown: Close stops admission, drains every queued frame
//     through the workers, and returns when all in-flight work is done — a
//     breaker-parked worker is woken immediately so Close never waits out a
//     backoff.
//
// The policies — Ladder, the jittered backoff, RetryPolicy.Next, Ring, QoS,
// ShedController — hold no goroutines and no clock: Engine and Router feed
// them queue lengths, counters and time, and the loadgen simulator feeds them
// the same from its virtual clock, so the model cannot disagree with the
// fleet about when to step, wait or retry.
package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/pipeline"
)

// Engine errors returned by Submit. ErrInvalidInput is declared in
// admission.go and ErrPanic in resilience.go.
var (
	// ErrClosed reports a Submit after Close started.
	ErrClosed = errors.New("serve: engine closed")
	// ErrQueueFull is the backpressure signal: the bounded submission queue
	// is at capacity and the frame was rejected without blocking.
	ErrQueueFull = errors.New("serve: submission queue full")
	// ErrDeadline reports a frame whose deadline expired before a worker
	// could run it.
	ErrDeadline = errors.New("serve: request deadline exceeded")
)

// Tier is one degraded rung of the serving ladder: a named set of cheaper
// replica nets, one per worker. pipeline.FleetReplicas builds weight-sharing
// rows ready to be wired here.
type Tier struct {
	// Name labels the tier in stats output (e.g. "W/2+budget/2").
	Name string
	// Nets holds one replica per worker, sharing weights with the primary
	// replicas but built with a cheaper approximation preset.
	Nets []pipeline.Net
}

// Config tunes the engine. The zero value selects sane defaults for every
// field. The overload and recovery thresholds are not fields: the ladder's
// watermarks (ladder.go), the circuit breaker's trip count and parks
// (resilience.go) and the admission cap DefaultMaxPoints are constants.
type Config struct {
	// QueueDepth bounds the submission queue; a full queue rejects with
	// ErrQueueFull. Default: 4× the worker count.
	QueueDepth int
	// MaxBatch is read by nothing: a worker takes one frame per pickup.
	//
	// Deprecated: the benchmark under bench/ is its only setter; ROADMAP
	// item 2(b)/(c) removes it together with that use.
	MaxBatch int
	// BatchWindow is read by nothing: a worker never waits for more frames.
	//
	// Deprecated: the benchmark under bench/ is its only setter; ROADMAP
	// item 2(b)/(c) removes it together with that use.
	BatchWindow time.Duration
	// DefaultTimeout is applied to requests that carry no timeout of their
	// own. Zero means no deadline.
	DefaultTimeout time.Duration

	// Degrade is the degradation ladder: Degrade[i] serves tier i+1 (tier 0
	// is the full-fidelity replica set given to New). Empty disables
	// degradation — overload then rejects with ErrQueueFull as before. When
	// to step is the Ladder's fixed policy (ladder.go).
	Degrade []Tier

	// StallTimeout arms the stall watchdog: a worker whose frame-start
	// heartbeat is older than this is declared wedged — its in-flight frame
	// fails with ErrStalled, the stall counts toward the worker's circuit
	// breaker, and the pool slot is respawned with replicas rebuilt through
	// Rebuild (without a Rebuild hook the frame still fails but the wedged
	// worker keeps its slot, since its replica cannot be replaced). Zero —
	// the default — disables the watchdog. See watchdog.go.
	StallTimeout time.Duration
	// Rebuild, when set, is called after a replica panics to build its
	// replacement (pipeline.RebuildReplica shares weights with the old set).
	// worker is the pool slot, tier the ladder rung that panicked. A nil
	// hook (or a failing rebuild) keeps the old replica: panics are still
	// isolated, but a corrupted workspace would persist.
	Rebuild func(worker, tier int) (pipeline.Net, error)

	// Faults, when non-nil, threads a deterministic fault-injection plan
	// through the engine's internals (chaos testing). Nil — the default —
	// costs one pointer check per frame.
	Faults *faultinject.Plan
}

func (c *Config) defaults(workers int) {
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * workers
	}
	if c.StallTimeout < 0 {
		c.StallTimeout = 0
	}
}

// Request is one frame submitted for inference.
type Request struct {
	// Cloud is the input frame. It must not be mutated until Submit returns:
	// the forward pass reads it concurrently with the caller.
	Cloud *geom.Cloud
	// Timeout, when positive, is how long the frame may wait for a worker:
	// one that picks it up later fails it with ErrDeadline instead of
	// running it. Zero inherits Config.DefaultTimeout. It does not bound
	// Submit's wait; ctx does.
	Timeout time.Duration
}

// Result is the outcome of one served frame.
type Result struct {
	// Output holds the logits, detached from the worker's workspace (valid
	// indefinitely). Nil when Err is set.
	Output *model.Output
	// Err is the per-frame failure, also returned by Submit.
	Err error
	// Worker is the pool slot that ran the frame.
	Worker int
	// Tier is the degradation rung the frame was served at: 0 is full
	// fidelity, i ≥ 1 indexes Config.Degrade[i-1].
	Tier int
	// Wait is the time from submission to the worker picking the frame up;
	// Total is submission to completion.
	Wait  time.Duration
	Total time.Duration
}

// request is the queued form of a Request.
type request struct {
	cloud    *geom.Cloud
	seq      uint64 // admission sequence number (fault-plan domain)
	ctx      context.Context
	deadline time.Time // zero: no deadline
	enq      time.Time
	reply    chan Result // buffered (cap 1): workers never block on delivery
	done     atomic.Bool // result delivered; CAS-claimed (see deliver)
}

// deliver claims the request and sends res, reporting whether this caller
// won the claim. Exactly one deliverer ever wins — the serving worker, the
// stall watchdog, or a recover path — which is what keeps the cap-1 reply
// channel from wedging and guarantees no request is double-completed when a
// watchdog fails a frame a zombie worker later finishes.
//
//edgepc:hotpath
func (r *request) deliver(res Result, counted ...*atomic.Uint64) bool {
	if r == nil || !r.done.CompareAndSwap(false, true) {
		return false
	}
	// Count first, then hand over: a caller that has its result can rely on
	// Stats already showing it.
	for _, c := range counted {
		c.Add(1)
	}
	r.reply <- res
	return true
}

// worker is one goroutine incarnation of a pool slot: a private net replica
// per ladder tier (shared weights, private workspace and caches) and a
// reusable trace. A respawn — lastResort after an escaped panic, or the
// stall watchdog deposing a wedged incarnation — builds a fresh worker for
// the slot, so deposed/beat/live state is never shared between the dying
// goroutine and its replacement.
type worker struct {
	id    int
	nets  []pipeline.Net // nets[tier]; index 0 is the full-fidelity replica
	trace model.Trace

	// Circuit-breaker state. Written only by the owning goroutine (and the
	// constructor of a replacement incarnation); atomic because the stall
	// watchdog reads them to carry the streak across a depose-respawn.
	consec   atomic.Int32 // consecutive failed (panicked or stalled) frames
	trips    atomic.Int32 // consecutive breaker trips (backoff exponent)
	respawns atomic.Int32 // consecutive respawns of this slot's lineage

	pendingTrip bool // replacement must serve a breaker park before its first frame

	beat    atomic.Int64            // frame-start heartbeat (unix ns); 0 while idle
	deposed atomic.Bool             // incarnation claimed (watchdog or own exit); claimant runs wg.Done
	live    atomic.Pointer[request] // in-flight frame published for the watchdog
}

// Engine is the concurrent inference engine. Create with NewEngine; all
// methods are safe for concurrent use.
type Engine struct {
	cfg     Config
	workers int
	queue   chan *request
	closing chan struct{} // closed when Close starts; wakes parked workers
	faults  *faultinject.Plan
	tripAt  int32 // consecutive failures that trip the circuit breaker (resilience.go)

	ladder *Ladder // degradation ladder over the queue; 1 + len(cfg.Degrade) rungs

	mu     sync.RWMutex // guards closed against concurrent queue sends
	closed bool
	wg     sync.WaitGroup

	seq       atomic.Uint64 // admission sequence numbers
	submitted atomic.Uint64
	completed atomic.Uint64
	failed    atomic.Uint64
	rejected  atomic.Uint64
	timedOut  atomic.Uint64
	canceled  atomic.Uint64
	invalid   atomic.Uint64
	frames    atomic.Uint64 // frames picked up by a worker

	degraded    []atomic.Uint64 // completed frames per tier
	panics      atomic.Uint64
	quarantines atomic.Uint64
	trips       atomic.Uint64
	stalls      atomic.Uint64 // frames failed with ErrStalled by the watchdog
	respawns    atomic.Uint64 // worker respawns (lastResort + watchdog deposals)

	slots []atomic.Pointer[worker] // current incarnation per pool slot

	panicMu   sync.Mutex
	lastPanic string

	latency *metrics.LatencyWindow
}

// New starts an engine as NewEngine does. Its second and third arguments
// once carried an edgesim device and pricing config; they are ignored, since
// the engine prices no frame, and typed any so that serve need not import
// edgesim.
//
// Deprecated: the benchmark under bench/ is its only caller; ROADMAP item
// 2(b)/(c) moves it to NewEngine and removes New.
func New(nets []pipeline.Net, _, _ any, cfg Config) (*Engine, error) {
	return NewEngine(nets, cfg)
}

// NewEngine starts an engine with one worker per net. The nets must be
// independent replicas (pipeline.Replicas builds weight-sharing ones); a
// single net must never be given twice — each worker assumes exclusive
// ownership of its replica's workspace and caches. The same holds across
// cfg.Degrade tiers: every tier needs one exclusive replica per worker
// (pipeline.FleetReplicas builds the whole matrix). A worker runs each frame
// through net.Forward and nothing else: the engine does not price frames
// against the edgesim device model.
func NewEngine(nets []pipeline.Net, cfg Config) (*Engine, error) {
	return newEngine(nets, cfg, breakerTrip)
}

// newEngine is NewEngine with the circuit breaker's trip count as a
// parameter: NewEngine passes breakerTrip, and the package's own tests pass
// breakerOff to isolate another recovery path from the breaker's parks.
func newEngine(nets []pipeline.Net, cfg Config, tripAt int32) (*Engine, error) {
	if len(nets) == 0 {
		return nil, fmt.Errorf("serve: need at least one net replica")
	}
	all := make([]pipeline.Net, 0, len(nets)*(1+len(cfg.Degrade)))
	all = append(all, nets...)
	for t, tier := range cfg.Degrade {
		if len(tier.Nets) != len(nets) {
			return nil, fmt.Errorf("serve: degrade tier %d has %d nets for %d workers", t+1, len(tier.Nets), len(nets))
		}
		all = append(all, tier.Nets...)
	}
	for i, n := range all {
		if n == nil {
			return nil, fmt.Errorf("serve: nil net replica %d", i)
		}
		for j := 0; j < i; j++ {
			if all[j] == n {
				return nil, fmt.Errorf("serve: net replica %d duplicates replica %d (workers need exclusive replicas)", i, j)
			}
		}
	}
	cfg.defaults(len(nets))
	numTiers := 1 + len(cfg.Degrade)
	e := &Engine{
		cfg:      cfg,
		workers:  len(nets),
		queue:    make(chan *request, cfg.QueueDepth),
		closing:  make(chan struct{}),
		faults:   cfg.Faults,
		tripAt:   tripAt,
		ladder:   NewLadder(numTiers, cfg.QueueDepth),
		degraded: make([]atomic.Uint64, numTiers),
		latency:  metrics.NewLatencyWindow(metrics.DefaultLatencyWindow),
	}
	e.slots = make([]atomic.Pointer[worker], len(nets))
	for i, n := range nets {
		tiers := make([]pipeline.Net, 1, numTiers)
		tiers[0] = n
		for _, t := range cfg.Degrade {
			tiers = append(tiers, t.Nets[i])
		}
		w := &worker{id: i, nets: tiers}
		e.slots[i].Store(w)
		e.wg.Add(1)
		go e.workerLoop(w)
	}
	if cfg.StallTimeout > 0 {
		e.wg.Add(1)
		go e.watchdog()
	}
	return e, nil
}

// TierName names a ladder rung for display: "full" for tier 0, the
// configured tier name (or "tier<N>") above.
func (e *Engine) TierName(t int) string {
	if t <= 0 {
		return "full"
	}
	if t <= len(e.cfg.Degrade) && e.cfg.Degrade[t-1].Name != "" {
		return e.cfg.Degrade[t-1].Name
	}
	return fmt.Sprintf("tier%d", t)
}

// QueueFill reports the submission queue's fill fraction in [0,1] — the
// pressure signal the fleet router's shed controller averages across
// engines. Safe for concurrent use; one channel read, no locks.
func (e *Engine) QueueFill() float64 {
	if cap(e.queue) == 0 {
		return 0
	}
	return float64(len(e.queue)) / float64(cap(e.queue))
}

// Submit enqueues one frame and waits for its result. Admission never
// blocks: an invalid frame returns ErrInvalidInput, a full queue
// ErrQueueFull, and a closed engine ErrClosed, all immediately. Only ctx
// bounds the wait for the result: the request deadline (Request.Timeout,
// Config.DefaultTimeout or ctx's) is checked when a worker picks the frame
// up, so while every worker is busy a frame waits past it, and once every
// pool slot has retired it waits until ctx ends. Cancelling ctx abandons the
// frame — a worker will still skip past it but no result is delivered.
func (e *Engine) Submit(ctx context.Context, req Request) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	seq := e.seq.Add(1) - 1
	cloud := req.Cloud
	if e.faults != nil && cloud != nil {
		// Corrupt-input injection happens before admission on purpose: the
		// chaos tests assert that a poisoned frame is rejected here, never
		// handed to a worker.
		if d := e.faults.Frame(seq); d.Op == faultinject.OpCorrupt {
			cloud = faultinject.Corrupt(cloud, e.faults.Seed, seq)
		}
	}
	if err := validateFrame(cloud); err != nil {
		e.invalid.Add(1)
		return Result{}, err
	}
	r := &request{
		cloud: cloud,
		seq:   seq,
		ctx:   ctx,
		enq:   time.Now(),
		reply: make(chan Result, 1),
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = e.cfg.DefaultTimeout
	}
	if timeout > 0 {
		r.deadline = r.enq.Add(timeout)
	}
	if dl, ok := ctx.Deadline(); ok && (r.deadline.IsZero() || dl.Before(r.deadline)) {
		r.deadline = dl
	}

	// The RLock pairs with Close's exclusive section: a send can only race
	// with close(queue) if a Submit could still see closed == false after
	// Close set it, which the lock excludes.
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return Result{}, ErrClosed
	}
	select {
	case e.queue <- r:
		e.mu.RUnlock()
	default:
		e.mu.RUnlock()
		e.rejected.Add(1)
		return Result{}, ErrQueueFull
	}
	e.submitted.Add(1)
	e.ladder.Enqueued(len(e.queue))

	select {
	case res := <-r.reply:
		return res, res.Err
	case <-ctx.Done():
		e.canceled.Add(1)
		return Result{}, ctx.Err()
	}
}

// workerLoop is one pool goroutine: take the next frame, run it, repeat
// until the queue is closed and drained. A worker holds one frame at a time,
// so a frame queued while it is busy goes to whichever worker frees up
// first. The leading deferred guard keeps a panic from escaping the
// goroutine and killing the process; TestLastResortRespawnsWorker fails
// without it.
func (e *Engine) workerLoop(w *worker) {
	defer e.lastResort(w) // recovers; also balances the incarnation's wg slot
	if w.pendingTrip {
		// This incarnation replaced one whose failure streak crossed the
		// breaker's trip count (stall deposals count like panics): serve the breaker
		// park before touching the queue.
		w.pendingTrip = false
		e.trip(w)
	}
	// A deposed incarnation was declared wedged by the watchdog, which
	// failed its frame and respawned the slot; the stall resolved late, so
	// it bows out without touching the queue.
	for !w.deposed.Load() {
		r, ok := <-e.queue
		if !ok {
			return
		}
		e.runFrame(w, r)
	}
}

// runFrame is the per-frame worker hot path: publish the frame for the stall
// watchdog, sample the serving tier, pass the deadline/cancellation gate,
// then run the reentrant pipeline entry point against the worker's private
// replica and trace. The deferred endFrame is the panic barrier — a frame
// that panics fails alone — and observes the ladder. The steady-state
// allocation profile is the single-frame pipeline's (see
// BenchmarkServeSteadyState): the request, its reply channel and the
// detached Output header are the only serve-layer additions.
//
//edgepc:hotpath
func (e *Engine) runFrame(w *worker, r *request) {
	e.frames.Add(1)
	tier := e.ladder.Tier()
	w.live.Store(r)
	defer e.endFrame(w, r, tier)
	d := e.faults.Frame(r.seq) // zero Decision without a plan
	if d.Op == faultinject.OpStall {
		w.beat.Store(time.Now().UnixNano()) // the watchdog times the stall
		time.Sleep(d.Sleep)
	}
	now := time.Now()
	w.beat.Store(now.UnixNano()) // frame-start heartbeat for the watchdog
	if r.ctx.Err() != nil {
		// Submitter is gone (counted in canceled at Submit); deliver into
		// the buffered channel for the record and move on.
		r.deliver(Result{Err: r.ctx.Err(), Worker: w.id, Tier: tier})
		return
	}
	if !r.deadline.IsZero() && now.After(r.deadline) {
		e.finish(r, Result{Err: ErrDeadline, Worker: w.id, Tier: tier, Wait: now.Sub(r.enq)}, &e.timedOut)
		return
	}
	switch d.Op {
	case faultinject.OpPanic:
		panic(fmt.Sprintf("faultinject: frame %d", r.seq))
	case faultinject.OpDelay:
		time.Sleep(d.Sleep)
	}
	w.trace.Reset()
	out, err := w.nets[tier].Forward(r.cloud, &w.trace, false)
	if err != nil {
		e.finish(r, Result{Err: fmt.Errorf("serve: worker %d: %w", w.id, err), Worker: w.id, Tier: tier, Wait: now.Sub(r.enq)}, &e.failed)
		return
	}
	e.finish(r, Result{Output: out, Worker: w.id, Tier: tier, Wait: now.Sub(r.enq)}, &e.completed, &e.degraded[tier])
}

// endFrame is runFrame's deferred exit. As the panic barrier it recovers a
// panicking frame, fails that request with ErrPanic, quarantines the replica
// before the next frame runs (resilience.go) and trips the circuit breaker
// after breakerTrip consecutive panics; a clean frame resets the streaks. It
// then clears the watchdog's view of the worker and reports the queue length
// to the ladder. The recover is open-coded (a deferred call with no closure
// state), so the no-panic path adds zero allocations to runFrame.
//
//edgepc:hotpath
func (e *Engine) endFrame(w *worker, r *request, tier int) {
	if v := recover(); v != nil {
		e.panics.Add(1)
		e.notePanic(w.id, v)
		e.failRequest(w, r, tier, fmt.Errorf("%w: worker %d: %v", ErrPanic, w.id, v))
		e.quarantine(w, tier)
		if w.consec.Add(1) >= e.tripAt {
			w.consec.Store(0)
			w.beat.Store(0) // a breaker park is not a stall
			e.trip(w)
		}
	} else {
		w.consec.Store(0)
		w.trips.Store(0)
		w.respawns.Store(0)
	}
	w.beat.Store(0)
	w.live.Store(nil)
	e.ladder.Done(len(e.queue))
}

// finish stamps the end-to-end latency and delivers the result (never
// blocking: the reply channel is buffered and read at most once), moving
// the given counters if this caller won the delivery — only the winner's
// may move, so a zombie worker finishing a frame the watchdog already
// failed cannot double-count it.
//
//edgepc:hotpath
func (e *Engine) finish(r *request, res Result, counted ...*atomic.Uint64) {
	res.Total = time.Since(r.enq)
	if r.deliver(res, counted...) {
		e.latency.Observe(res.Total)
	}
}

// Close stops admission, wakes any breaker-parked worker, drains every
// queued frame through the workers, and returns once all in-flight work has
// completed. Queued frames are still served (or dropped via their
// deadlines); new Submits fail with ErrClosed. A second Close returns
// ErrClosed.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrClosed
	}
	e.closed = true
	e.mu.Unlock()
	close(e.closing) // interrupt breaker backoffs: drain must never wait one out
	close(e.queue)
	e.wg.Wait()
	return nil
}

// Stats is a point-in-time snapshot of the engine's counters and latency
// distribution.
type Stats struct {
	Workers  int
	QueueLen int // frames currently queued
	QueueCap int

	Submitted uint64 // admitted frames
	Completed uint64 // frames served successfully
	Failed    uint64 // frames whose forward pass errored
	Rejected  uint64 // backpressure rejections (ErrQueueFull)
	TimedOut  uint64 // frames dropped at their deadline (ErrDeadline)
	Canceled  uint64 // submitters that abandoned via ctx
	Invalid   uint64 // frames rejected at admission (ErrInvalidInput)

	Panics       uint64 // frames failed by a worker panic (ErrPanic)
	Quarantines  uint64 // replica quarantine events after panics
	BreakerTrips uint64 // circuit-breaker parks across all workers
	Stalls       uint64 // frames failed by the stall watchdog (ErrStalled)
	Respawns     uint64 // worker respawns (escaped panics + stall deposals)
	LastPanic    string // worker, value and stack of the most recent panic

	Tier      int      // current degradation tier (0 = full fidelity)
	StepDowns uint64   // ladder step-down events
	StepUps   uint64   // ladder step-up (recovery) events
	Degraded  []uint64 // completed frames per tier; index 0 = full fidelity

	Frames uint64 // frames picked up by a worker
	// Batches equals Frames: a worker runs one frame per pickup.
	//
	// Deprecated: kept for the benchmark under bench/, whose
	// mean_batch row divides Frames by it; ROADMAP item 2(b)/(c) removes it.
	Batches uint64

	Latency metrics.LatencySnapshot // end-to-end submit→completion
}

// Stats returns a snapshot; safe to call concurrently with serving.
func (e *Engine) Stats() Stats {
	s := Stats{
		Workers:      e.workers,
		QueueLen:     len(e.queue),
		QueueCap:     cap(e.queue),
		Submitted:    e.submitted.Load(),
		Completed:    e.completed.Load(),
		Failed:       e.failed.Load(),
		Rejected:     e.rejected.Load(),
		TimedOut:     e.timedOut.Load(),
		Canceled:     e.canceled.Load(),
		Invalid:      e.invalid.Load(),
		Panics:       e.panics.Load(),
		Quarantines:  e.quarantines.Load(),
		BreakerTrips: e.trips.Load(),
		Stalls:       e.stalls.Load(),
		Respawns:     e.respawns.Load(),
		Tier:         e.ladder.Tier(),
		Frames:       e.frames.Load(),
		Latency:      e.latency.Snapshot(),
	}
	s.StepDowns, s.StepUps = e.ladder.Steps()
	s.Degraded = make([]uint64, len(e.degraded))
	for i := range e.degraded {
		s.Degraded[i] = e.degraded[i].Load()
	}
	e.panicMu.Lock()
	s.LastPanic = e.lastPanic
	e.panicMu.Unlock()
	s.Batches = s.Frames
	return s
}
