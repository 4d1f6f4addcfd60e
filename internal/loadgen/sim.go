package loadgen

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
)

// The discrete-event simulator. One goroutine, virtual nanosecond clock,
// binary event heap with (time, sequence) ordering — every tie breaks the
// same way on every run. Every *policy decision* is made by the serve
// package's own code: the consistent-hash Ring, token-bucket QoS (on the
// virtual clock) and hysteresis ShedController admit and shed, each
// engine's serve.Ladder decides when to step a tier down or up, and
// serve.RetryPolicy decides whether a retry may launch and after what
// backoff. What is modelled here is only frame *execution*: a bounded
// reject-don't-block FIFO per engine, Workers service slots, and a per-tier
// service time drawn from calibration or the spec. A slot serves one frame
// at a time and Ladder.Done observes after each, as serve.Engine's workers
// do.
//
// With StallFrac > 0 the survivability layer engages (DESIGN.md §15): a
// seeded per-dispatch draw wedges the attempt's worker until the modelled
// watchdog reclaims it at StallTimeout; stalled frames are then retried on
// the next ring candidate after the retry policy's backoff (never past the
// deadline budget, up to Retries times). A frame's attempts are strictly
// sequential, like Router.Submit's attempt loop: a retry starts only after
// the stalled attempt was reclaimed and its backoff elapsed. The stall draw
// is a pure hash of (seed, attempt ordinal), never the arrival RNG, so
// StallFrac = 0 runs are bit-identical to the plain model.

// event kinds.
const (
	evArrival = iota
	evComplete
	evStallFree // watchdog reclaims a stalled attempt's worker
	evRetry     // a stalled frame's retry backoff has elapsed
)

// event is one heap entry. Completion events carry the frame's provenance;
// survivability events additionally carry the frame id.
type event struct {
	at     int64 // virtual ns
	seq    uint64
	kind   uint8
	prio   uint8
	tier   int16
	eng    int32
	tenant int32
	arr    int64  // arrival time of the completing frame
	fid    uint64 // frame id; 0 when the survivability layer is off
}

// eventHeap is a binary min-heap over (at, seq).
type eventHeap []event

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !eventLess((*h)[i], (*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && eventLess(old[l], old[small]) {
			small = l
		}
		if r < n && eventLess(old[r], old[small]) {
			small = r
		}
		if small == i {
			break
		}
		old[i], old[small] = old[small], old[i]
		i = small
	}
	return top
}

func eventLess(a, b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// qItem is one queued attempt in a simulated engine.
type qItem struct {
	arr    int64
	tenant int32
	prio   uint8
	fid    uint64 // frame id; 0 when the survivability layer is off
}

// frameState tracks one admitted frame while the survivability layer is on:
// its one attempt in flight and the retries it has spent. The frame leaves
// the tracking map when it completes or terminally fails.
type frameState struct {
	arr     int64
	h       uint64 // route hash; retry candidates recomputed from it
	tenant  int32
	prio    uint8
	candIdx int // next ring candidate for a retry dispatch
	retries int
}

// simEngine models one engine's execution state: a bounded FIFO
// (reject-don't-block) and Workers service slots. The degradation ladder
// over that queue is the engine's own serve.Ladder.
type simEngine struct {
	q       []qItem // circular buffer of capacity depth
	head, n int
	depth   int
	free    int // idle workers
	ladder  *serve.Ladder
}

func (e *simEngine) fill() float64 { return float64(e.n) / float64(e.depth) }

func (e *simEngine) push(it qItem) {
	e.q[(e.head+e.n)%e.depth] = it
	e.n++
}

func (e *simEngine) popq() qItem {
	it := e.q[e.head]
	e.head = (e.head + 1) % e.depth
	e.n--
	return it
}

// Counts are the exact, reproducibility-bearing outcome counters: same
// (spec, seed, mult) ⇒ identical Counts, bit for bit.
type Counts struct {
	Offered        uint64   `json:"offered"`
	Admitted       uint64   `json:"admitted"`
	Completed      uint64   `json:"completed"`
	ShedThrottled  uint64   `json:"shed_throttle"`
	ShedOverload   uint64   `json:"shed_overload"`
	ShedQueueFull  uint64   `json:"shed_queue"`
	FailedDeadline uint64   `json:"failed_deadline"`
	FailedStall    uint64   `json:"failed_stall"` // stalled with retries exhausted
	Stalled        uint64   `json:"stalled"`      // attempts wedged until the watchdog reclaimed them
	Retried        uint64   `json:"retried"`      // re-dispatches of stalled frames (attempts, not offers)
	Degraded       []uint64 `json:"degraded"`     // completed per tier; [0] is full fidelity
	StepDowns      uint64   `json:"step_downs"`
	StepUps        uint64   `json:"step_ups"`
	ShedRaises     uint64   `json:"shed_raises"`
	ShedDrops      uint64   `json:"shed_drops"`
	ShedLevelMax   int      `json:"shed_level_max"`
}

// Shed sums the three shed classes.
func (c *Counts) Shed() uint64 { return c.ShedThrottled + c.ShedOverload + c.ShedQueueFull }

// ClassMetrics summarizes one priority class.
type ClassMetrics struct {
	Priority  string  `json:"priority"`
	Offered   uint64  `json:"offered"`
	Completed uint64  `json:"completed"`
	Shed      uint64  `json:"shed"`
	Failed    uint64  `json:"failed"`
	P50Ms     float64 `json:"p50_ms"`
	P99Ms     float64 `json:"p99_ms"`
}

// Metrics is one scenario's full result.
type Metrics struct {
	Counts
	P50              time.Duration  `json:"-"`
	P99              time.Duration  `json:"-"`
	Mean             time.Duration  `json:"-"`
	Max              time.Duration  `json:"-"`
	P50Ms            float64        `json:"p50_ms"`
	P99Ms            float64        `json:"p99_ms"`
	MeanMs           float64        `json:"mean_ms"`
	MaxMs            float64        `json:"max_ms"`
	OfferedFPS       float64        `json:"offered_fps"`
	GoodputFPS       float64        `json:"goodput_fps"`
	FullFidelityFrac float64        `json:"full_fidelity_frac"`
	FairnessJain     float64        `json:"fairness_jain"`
	Classes          []ClassMetrics `json:"classes"`
}

// sim is one scenario run's state.
type sim struct {
	spec    Spec
	rng     *RNG
	now     int64
	durNs   int64
	seq     uint64
	events  eventHeap
	engines []simEngine
	ring    *serve.Ring
	shed    *serve.ShedController
	qos     *serve.QoS
	names   []string
	prio    []serve.Priority
	zipf    *Zipf
	cand    []int

	wantCand int // ring candidates needed to cover spill + retries

	// Survivability state (nil/zero unless StallFrac > 0).
	surv       bool
	frames     map[uint64]*frameState
	nextFid    uint64
	attemptSeq uint64             // ordinal feeding the pure-hash stall draw
	stallNs    int64              // resolved watchdog reclaim delay
	retry      *serve.RetryPolicy // nil: stalled frames are not retried
	cand2      []int              // scratch for retry candidate recomputation

	rateBase  float64 // spec rate × overload multiplier
	xmCache   float64 // Pareto xm at the current effective rate
	rateCache float64
	alpha     float64

	lat      []int64
	classLat [numPriorities][]int64
	classes  [numPriorities]ClassMetrics
	tOffered []uint32
	tDone    []uint32
	counts   Counts
}

// EffectiveRate is the base arrival rate at multiplier 1: the spec's Rate,
// or the fleet's modelled capacity when Rate is auto.
func (s *Spec) EffectiveRate() float64 {
	if s.Rate > 0 {
		return s.Rate
	}
	return s.capacity()
}

// Run simulates one scenario at the given overload multiplier and returns
// its metrics. The spec is validated first; the conservation laws
// (offered = admitted + shed, admitted = completed + deadline-failed +
// stall-failed, retried ≤ Retries × admitted) are checked before returning
// and violate loudly, never silently.
func Run(spec Spec, mult float64) (Metrics, error) {
	if err := spec.Validate(); err != nil {
		return Metrics{}, err
	}
	if !(mult > 0) {
		return Metrics{}, specErr("mult", fmt.Sprint(mult), "overload multiplier must be > 0")
	}
	s, err := newSim(spec, mult)
	if err != nil {
		return Metrics{}, err
	}
	return s.run()
}

func newSim(spec Spec, mult float64) (*sim, error) {
	ring, err := serve.NewRing(spec.Engines, spec.VNodes)
	if err != nil {
		return nil, err
	}
	s := &sim{
		spec:     spec,
		rng:      NewRNG(spec.Seed),
		durNs:    int64(spec.Duration),
		ring:     ring,
		zipf:     NewZipf(spec.Tenants, spec.ZipfS),
		engines:  make([]simEngine, spec.Engines),
		cand:     make([]int, 0, spec.Engines),
		rateBase: spec.EffectiveRate() * mult,
		alpha:    spec.ParetoAlpha,
		wantCand: 1 + spec.Spill,
		prio:     make([]serve.Priority, spec.Tenants),
		tOffered: make([]uint32, spec.Tenants),
		tDone:    make([]uint32, spec.Tenants),
	}
	depth := spec.queueDepth()
	for i := range s.engines {
		s.engines[i] = simEngine{
			q: make([]qItem, depth), depth: depth, free: spec.Workers,
			ladder: serve.NewLadder(len(spec.SvcTiers), depth, spec.LadderHigh, spec.LadderLow, spec.LadderHyst),
		}
	}
	s.shed = serve.NewShedController(serve.ShedConfig{
		HighWatermark: spec.ShedHigh,
		LowWatermark:  spec.ShedLow,
		Hysteresis:    spec.ShedHyst,
	})
	// Priority classes: each tenant draws its class from the mix by a pure
	// hash of (seed, tenant) — stable across scenarios of one spec.
	var cum [numPriorities]float64
	var total float64
	for _, m := range spec.Mix {
		total += m
	}
	acc := 0.0
	for i, m := range spec.Mix {
		acc += m / total
		cum[i] = acc
	}
	for t := range s.prio {
		u := float64(serve.Mix64(spec.Seed^0x70726f9e3779b9^uint64(t))>>11) * (1.0 / (1 << 53))
		s.prio[t] = serve.PriorityLow
		for c := 0; c < numPriorities; c++ {
			if u < cum[c] {
				s.prio[t] = serve.Priority(c)
				break
			}
		}
	}
	for c := range s.classes {
		s.classes[c].Priority = serve.Priority(c).String()
	}
	// Per-tenant token buckets: the real serve.QoS on the virtual clock.
	if spec.QoSRate > 0 {
		s.names = make([]string, spec.Tenants)
		limits := make(map[string]serve.TenantLimit, spec.Tenants)
		for t := range s.names {
			s.names[t] = fmt.Sprintf("t%d", t)
			limits[s.names[t]] = serve.TenantLimit{Rate: spec.QoSRate, Burst: spec.QoSBurst, Priority: s.prio[t]}
		}
		s.qos = serve.NewQoS(serve.QoSConfig{
			Default: serve.TenantLimit{Rate: spec.QoSRate, Burst: spec.QoSBurst},
			Tenants: limits,
			Clock:   func() time.Time { return time.Unix(0, s.now) },
		})
	}
	s.counts.Degraded = make([]uint64, len(spec.SvcTiers))
	// Survivability layer: engages only when stalls are actually injected, so
	// StallFrac = 0 runs stay bit-identical to the plain model.
	s.surv = spec.StallFrac > 0
	if s.surv {
		s.frames = make(map[uint64]*frameState)
		s.stallNs = int64(spec.StallTimeout)
		if s.stallNs <= 0 {
			s.stallNs = 4 * int64(spec.SvcTiers[0])
		}
		if spec.Retries > 0 {
			s.retry = &serve.RetryPolicy{Max: spec.Retries, Seed: spec.Seed}
			s.retry.Normalize()
			s.wantCand += spec.Retries // each re-attempt rotates one candidate further
		}
	}
	return s, nil
}

// schedule pushes ev with the next tie-breaking sequence number.
func (s *sim) schedule(ev event) {
	s.seq++
	ev.seq = s.seq
	s.events.push(ev)
}

// rampMult evaluates the diurnal schedule at virtual time t (piecewise
// linear between breakpoints; flat 1 with no schedule). Clamped to 1e-3 so
// the arrival chain never stalls on a zero-rate segment.
func (s *sim) rampMult(t int64) float64 {
	r := s.spec.Ramp
	m := 1.0
	if len(r) > 0 {
		x := float64(t) / float64(s.durNs)
		switch {
		case x <= r[0].At:
			m = r[0].Mult
		case x >= r[len(r)-1].At:
			m = r[len(r)-1].Mult
		default:
			for i := 1; i < len(r); i++ {
				if x <= r[i].At {
					span := r[i].At - r[i-1].At
					if span <= 0 {
						m = r[i].Mult
					} else {
						f := (x - r[i-1].At) / span
						m = r[i-1].Mult + float64(f*(r[i].Mult-r[i-1].Mult))
					}
					break
				}
			}
		}
	}
	if m < 1e-3 {
		m = 1e-3
	}
	return m
}

// scheduleArrival draws the next Pareto inter-arrival gap at the current
// ramped rate and pushes the arrival if it lands inside the scenario.
func (s *sim) scheduleArrival() {
	rate := s.rateBase * s.rampMult(s.now)
	// Exact equality is the point: this is a memo key (recompute xm only when
	// the ramped rate changes bit-for-bit), not a numeric comparison.
	//edgepc:lint-ignore floateq memo-key comparison, not arithmetic
	if rate != s.rateCache {
		s.rateCache = rate
		s.xmCache = ParetoXm(s.alpha, rate)
	}
	gap := s.rng.Pareto(s.alpha, s.xmCache)
	at := s.now + int64(gap*1e9)
	if at <= s.now {
		at = s.now + 1
	}
	if at > s.durNs {
		return // open-loop stream ends; completions drain
	}
	s.schedule(event{at: at, kind: evArrival})
}

func (s *sim) fleetFill() float64 {
	var sum float64
	for i := range s.engines {
		sum += s.engines[i].fill()
	}
	return sum / float64(len(s.engines))
}

// arrive processes one arrival: tenant draw, QoS, shed, route, enqueue.
func (s *sim) arrive() {
	tenant := s.zipf.Pick(s.rng.Float64())
	stream := s.rng.IntN(s.spec.Streams)
	s.counts.Offered++
	s.tOffered[tenant]++
	prio := s.prio[tenant]
	if s.qos != nil {
		p, err := s.qos.Admit(s.names[tenant])
		prio = p
		if err != nil {
			s.counts.ShedThrottled++
			s.classes[prio].Offered++
			s.classes[prio].Shed++
			return
		}
	}
	s.classes[prio].Offered++
	s.shed.Observe(s.fleetFill())
	if l := s.shed.Level(); l > s.counts.ShedLevelMax {
		s.counts.ShedLevelMax = l
	}
	if s.shed.Sheds(prio) {
		s.counts.ShedOverload++
		s.classes[prio].Shed++
		return
	}
	h := serve.Mix64(serve.Mix64(s.spec.Seed^0x726f757465) ^ uint64(tenant)<<10 ^ uint64(stream))
	s.cand = s.ring.CandidatesHash(h, s.wantCand, s.cand)
	// Initial admission only spills over the first 1+Spill candidates — the
	// rest of the walk is reserved for retries, exactly like the
	// router's wider Candidates request.
	adm := s.cand
	if spill := 1 + s.spec.Spill; len(adm) > spill {
		adm = adm[:spill]
	}
	for i, id := range adm {
		e := &s.engines[id]
		if e.n >= e.depth {
			continue
		}
		s.counts.Admitted++
		var fid uint64
		if s.surv {
			s.nextFid++
			fid = s.nextFid
			s.frames[fid] = &frameState{
				arr: s.now, h: h, tenant: int32(tenant), prio: uint8(prio),
				candIdx: i + 1,
			}
		}
		e.push(qItem{arr: s.now, tenant: int32(tenant), prio: uint8(prio), fid: fid})
		e.ladder.Enqueued(e.n)
		s.dispatch(id)
		return
	}
	s.counts.ShedQueueFull++
	s.classes[prio].Shed++
}

// dispatch starts service on engine id while workers are idle and frames
// queued, dropping at pickup a frame whose deadline passed while it waited
// (the engine's ErrDeadline). With the survivability layer on it also draws
// per-attempt stalls.
func (s *sim) dispatch(id int) {
	e := &s.engines[id]
	for e.free > 0 && e.n > 0 {
		it := e.popq()
		if s.spec.Deadline > 0 && s.now-it.arr > int64(s.spec.Deadline) {
			s.failFrame(it.fid, it.prio, &s.counts.FailedDeadline)
			e.ladder.Done(e.n)
			continue
		}
		e.free--
		if s.surv && s.stallDraw() {
			// Stalled attempt: the worker stays wedged until the modelled
			// watchdog reclaims it at StallTimeout.
			s.counts.Stalled++
			s.schedule(event{
				at: s.now + s.stallNs, kind: evStallFree, prio: it.prio,
				eng: int32(id), tenant: it.tenant, arr: it.arr, fid: it.fid,
			})
			continue
		}
		tier := e.ladder.Tier()
		s.schedule(event{
			at: s.now + int64(s.spec.SvcTiers[tier]), kind: evComplete, prio: it.prio,
			tier: int16(tier), eng: int32(id), tenant: it.tenant, arr: it.arr,
			fid: it.fid,
		})
	}
}

// stallDraw decides whether the attempt being dispatched stalls: a pure
// hash of (seed, attempt ordinal), never the arrival RNG, so enabling the
// survivability layer does not perturb the arrival stream.
func (s *sim) stallDraw() bool {
	s.attemptSeq++
	u := float64(serve.Mix64(s.spec.Seed^0x7374616c6c21^s.attemptSeq)>>11) * (1.0 / (1 << 53))
	return u < s.spec.StallFrac
}

// failFrame is the one place an admitted frame terminally fails: it counts
// the failure into *failed and its priority class, and drops the frame from
// the tracking map (a no-op for fid 0, the survivability layer off).
func (s *sim) failFrame(fid uint64, prio uint8, failed *uint64) {
	*failed++
	s.classes[prio].Failed++
	delete(s.frames, fid)
}

// reenqueue pushes a fresh attempt of fr onto the next ring candidate with
// queue room, wrapping over the candidate walk like the router's
// trySubmitFrom. Returns the target engine (not yet dispatched) or -1 when
// every candidate's queue is full.
func (s *sim) reenqueue(fr *frameState, fid uint64) int {
	s.cand2 = s.ring.CandidatesHash(fr.h, s.wantCand, s.cand2)
	cand := s.cand2
	for i := 0; i < len(cand); i++ {
		j := (fr.candIdx + i) % len(cand)
		e := &s.engines[cand[j]]
		if e.n >= e.depth {
			continue
		}
		fr.candIdx = j + 1
		e.push(qItem{arr: fr.arr, tenant: fr.tenant, prio: fr.prio, fid: fid})
		e.ladder.Enqueued(e.n)
		return cand[j]
	}
	return -1
}

// stallFree is the modelled watchdog firing: the wedged worker comes back,
// and the stalled frame either waits out the retry policy's backoff before
// a re-dispatch (serve.RetryPolicy decides, so never past the retry cap or
// the deadline budget) or terminally fails as stall-failed.
func (s *sim) stallFree(ev event) {
	s.engines[ev.eng].free++
	fr := s.frames[ev.fid]
	budget := serve.NoDeadline
	if s.spec.Deadline > 0 {
		budget = s.spec.Deadline - time.Duration(s.now-fr.arr)
	}
	if wait, ok := s.retry.Next(fr.retries, ev.fid, budget); ok {
		fr.retries++
		s.schedule(event{at: s.now + int64(wait), kind: evRetry, fid: ev.fid})
	} else {
		s.failFrame(ev.fid, fr.prio, &s.counts.FailedStall)
	}
	s.dispatch(int(ev.eng))
}

// retryFire launches a stalled frame's retry once its backoff has elapsed,
// on the next ring candidate with queue room. The frame stall-fails here if
// every candidate is full.
func (s *sim) retryFire(ev event) {
	fr := s.frames[ev.fid]
	s.counts.Retried++
	if id := s.reenqueue(fr, ev.fid); id >= 0 {
		s.dispatch(id)
		return
	}
	s.failFrame(ev.fid, fr.prio, &s.counts.FailedStall)
}

// complete finishes one attempt: latency accounting, the ladder's
// frame-done observation, next dispatch. A frame's one attempt in flight is
// the only one that can complete it, so every completion counts.
func (s *sim) complete(ev event) {
	e := &s.engines[ev.eng]
	e.free++
	lat := s.now - ev.arr
	s.lat = append(s.lat, lat)
	s.classLat[ev.prio] = append(s.classLat[ev.prio], lat)
	s.counts.Completed++
	s.counts.Degraded[ev.tier]++
	s.tDone[ev.tenant]++
	s.classes[ev.prio].Completed++
	delete(s.frames, ev.fid) // a no-op with the survivability layer off
	e.ladder.Done(e.n)
	s.dispatch(int(ev.eng))
}

// step advances the virtual clock to ev and handles it.
func (s *sim) step(ev event) {
	s.now = ev.at
	switch ev.kind {
	case evArrival:
		s.arrive()
		s.scheduleArrival()
	case evComplete:
		s.complete(ev)
	case evStallFree:
		s.stallFree(ev)
	case evRetry:
		s.retryFire(ev)
	}
}

func (s *sim) run() (Metrics, error) {
	s.scheduleArrival()
	for len(s.events) > 0 {
		s.step(s.events.pop())
	}
	for i := range s.engines {
		downs, ups := s.engines[i].ladder.Steps()
		s.counts.StepDowns += downs
		s.counts.StepUps += ups
	}
	st := s.shed.Stats()
	s.counts.ShedRaises = st.Raises
	s.counts.ShedDrops = st.Drops

	c := &s.counts
	if c.Offered != c.Admitted+c.Shed() {
		return Metrics{}, fmt.Errorf("loadgen: accounting violated: offered %d != admitted %d + shed %d", c.Offered, c.Admitted, c.Shed())
	}
	if c.Admitted != c.Completed+c.FailedDeadline+c.FailedStall {
		return Metrics{}, fmt.Errorf("loadgen: accounting violated: admitted %d != completed %d + deadline-failed %d + stall-failed %d", c.Admitted, c.Completed, c.FailedDeadline, c.FailedStall)
	}
	if c.Retried > uint64(s.spec.Retries)*c.Admitted {
		return Metrics{}, fmt.Errorf("loadgen: accounting violated: retried %d > %d retries × admitted %d", c.Retried, s.spec.Retries, c.Admitted)
	}
	if len(s.frames) > 0 {
		return Metrics{}, fmt.Errorf("loadgen: accounting violated: %d frames leaked unresolved", len(s.frames))
	}

	m := Metrics{Counts: s.counts}
	durSec := s.spec.Duration.Seconds()
	m.OfferedFPS = float64(c.Offered) / durSec
	m.GoodputFPS = float64(c.Completed) / durSec
	if c.Completed > 0 {
		m.FullFidelityFrac = float64(c.Degraded[0]) / float64(c.Completed)
	}
	m.P50, m.P99, m.Mean, m.Max = latSummary(s.lat)
	m.P50Ms, m.P99Ms = durMs(m.P50), durMs(m.P99)
	m.MeanMs, m.MaxMs = durMs(m.Mean), durMs(m.Max)
	for cidx := range s.classes {
		cl := s.classes[cidx]
		p50, p99, _, _ := latSummary(s.classLat[cidx])
		cl.P50Ms, cl.P99Ms = durMs(p50), durMs(p99)
		m.Classes = append(m.Classes, cl)
	}
	shares := make([]float64, 0, s.spec.Tenants)
	for t := 0; t < s.spec.Tenants; t++ {
		if s.tOffered[t] == 0 {
			continue
		}
		shares = append(shares, float64(s.tDone[t])/float64(s.tOffered[t]))
	}
	m.FairnessJain = metrics.JainFairness(shares)
	return m, nil
}

// latSummary computes nearest-rank quantiles over latency samples.
func latSummary(lat []int64) (p50, p99, mean, max time.Duration) {
	if len(lat) == 0 {
		return 0, 0, 0, 0
	}
	sorted := append([]int64(nil), lat...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum int64
	for _, v := range sorted {
		sum += v
	}
	rank := func(q float64) time.Duration {
		r := int(float64(q*float64(len(sorted))) + 0.5)
		if r < 1 {
			r = 1
		}
		if r > len(sorted) {
			r = len(sorted)
		}
		return time.Duration(sorted[r-1])
	}
	return rank(0.50), rank(0.99), time.Duration(sum / int64(len(sorted))), time.Duration(sorted[len(sorted)-1])
}

func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// Scenario is one grid point: the overload multiplier and its metrics.
type Scenario struct {
	Mult float64 `json:"mult"`
	Metrics
}

// RunGrid runs the spec at each overload multiplier with the same seed.
func RunGrid(spec Spec, mults []float64) ([]Scenario, error) {
	out := make([]Scenario, 0, len(mults))
	for _, mult := range mults {
		m, err := Run(spec, mult)
		if err != nil {
			return nil, fmt.Errorf("mult %g: %w", mult, err)
		}
		out = append(out, Scenario{Mult: mult, Metrics: m})
	}
	return out, nil
}
