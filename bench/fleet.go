package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// fleet_burst constants. The fleet is edgepc-serve's fleet mode with a short
// queue, so that the ladder, the shed controller and spill-over all act
// inside one run.
const (
	tenants      = 200
	zipfS        = 1.1 // tenant popularity skew
	fleetEngines = 2
	fleetQueue   = 8
	ladderTiers  = 5
)

func tenantNames() []string {
	names := make([]string, tenants)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%d", i)
	}
	return names
}

// classify gives a tenant its QoS class from its key hash: 20 % high, 50 %
// normal, 30 % low, no rate limit.
func classify(tenant string) serve.TenantLimit {
	switch h := serve.KeyHash(tenant) % 10; {
	case h < 2:
		return serve.TenantLimit{Priority: serve.PriorityHigh}
	case h < 7:
		return serve.TenantLimit{Priority: serve.PriorityNormal}
	}
	return serve.TenantLimit{Priority: serve.PriorityLow}
}

// arrival is one request of the open-loop schedule.
type arrival struct {
	due    time.Duration // since the start of the replay
	tenant int
	frame  int // pool index
}

// burstStart and burstEnd place the burst in a cycle, as shares of its
// length: calm, burst, calm. The calm phases are long enough that more than
// half of the completed requests are theirs. With equal thirds the median
// request sat where the calm cluster of latencies ends and the burst's thin
// spread begins, and moved by a quarter when the machine's speed moved by a
// tenth; now the median reads the fleet unloaded and the 90th percentile
// reads it under the burst.
const burstStart, burstEnd = 0.4, 0.6

// cycleLength is how long one calm, burst, calm cycle lasts. At the full
// scale's rates a cycle offers 625 frames, 295 of them in the burst: enough
// to take the ladder to its last rung and the shed controller to level 2,
// and a second of calm on either side for both to come back.
const cycleLength = 2500 * time.Millisecond

// schedule draws a Poisson arrival process over total, as whole cycles of
// about cycleLength: calm, burst, calm. A run holds several bursts, and its
// percentiles are over all of them, because what the ladder and the shed
// controller make of one burst differs from burst to burst more than
// anything else here does. Each phase holds exactly rate × length arrivals at
// independent uniform instants, which is a Poisson process given its count:
// the gaps are as irregular as Poisson gaps, but every seed offers the same
// load, so that runs differ by what the program did with it. Tenants follow
// Zipf(zipfS), frames cycle through the pool.
func schedule(seed int64, total time.Duration, calmFPS, burstFPS float64, pool int) []arrival {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, tenants-1)
	cycles := max(1, int((total+cycleLength/2)/cycleLength))
	cycle := total / time.Duration(cycles)
	edges := [4]time.Duration{0, time.Duration(burstStart * float64(cycle)), time.Duration(burstEnd * float64(cycle)), cycle}
	var out []arrival
	for c := 0; c < cycles; c++ {
		for p, rate := range []float64{calmFPS, burstFPS, calmFPS} {
			start, length := time.Duration(c)*cycle+edges[p], edges[p+1]-edges[p]
			dues := make([]time.Duration, int(rate*length.Seconds()+0.5))
			for i := range dues {
				dues[i] = start + time.Duration(rng.Float64()*float64(length))
			}
			sort.Slice(dues, func(a, b int) bool { return dues[a] < dues[b] })
			for _, due := range dues {
				out = append(out, arrival{due: due, tenant: int(zipf.Uint64()), frame: len(out) % pool})
			}
		}
	}
	return out
}

// submitter is the part of serve.Router the replay needs; the tests put a
// stalling fake behind it.
type submitter interface {
	Submit(ctx context.Context, req serve.FleetRequest) (serve.Result, error)
}

// reply is what one arrival came to.
type reply struct {
	arrival
	sent, done time.Duration // since the start of the replay
	res        serve.Result
	err        error
}

// latency is measured from the instant the request was due, not from when
// the generator got round to sending it: a stall that delays later requests
// is charged to them.
func (r reply) latency() time.Duration { return r.done - r.due }

// replay sends the schedule open loop: one generator (the caller's
// goroutine) sleeps to each due time and hands the request to a goroutine
// that parks in Submit; the generator never waits for a reply. Refusals
// return at once, so the parked goroutines are bounded by the fleet's queue
// capacity plus its workers.
func replay(sub submitter, sched []arrival, names []string, pool []*geom.Cloud) []reply {
	replies := make([]reply, len(sched))
	var wg sync.WaitGroup
	start := time.Now()
	for i, a := range sched {
		if wait := a.due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		replies[i] = reply{arrival: a, sent: time.Since(start)}
		wg.Add(1)
		go func(r *reply) {
			defer wg.Done()
			r.res, r.err = sub.Submit(context.Background(), serve.FleetRequest{
				Request: serve.Request{Cloud: pool[r.frame]},
				Tenant:  names[r.tenant],
			})
			r.done = time.Since(start)
		}(&replies[i])
	}
	wg.Wait()
	return replies
}

// fleet is fleet_burst: independent tenants send frames on their own clock
// to a router over two single-worker engines with a degradation ladder.
type fleet struct {
	sc   scale
	seed int64

	names  []string
	pool   []*geom.Cloud
	refs   []reference
	direct directNet
	router *serve.Router
}

func newFleet(sc scale, seed int64) *fleet { return &fleet{sc: sc, seed: seed} }

func (f *fleet) setup(tr *tracer) error {
	t0 := time.Now()
	w, opts, err := w1(f.sc, f.sc.fleetPoints)
	if err != nil {
		return err
	}
	f.names = tenantNames()
	if f.pool, err = framePool(w, f.sc.pool, f.seed); err != nil {
		return err
	}
	generated := time.Now()
	kind := pipeline.SN
	dev, sim := edgesim.JetsonAGXXavier(), pipeline.SimConfig(w, kind, opts)
	net, err := pipeline.Build(w, kind, opts)
	if err != nil {
		return err
	}
	f.direct = directNet{net: net, dev: dev, sim: sim}
	if f.refs, err = f.direct.references(f.pool); err != nil {
		return err
	}
	replicas, err := pipeline.FleetReplicas(w, kind, opts, fleetEngines, 1, pipeline.DegradeTiers(w, opts, ladderTiers))
	if err != nil {
		return err
	}
	engines := make([]*serve.Engine, fleetEngines)
	for e := range engines {
		cfg := serve.Config{QueueDepth: fleetQueue, MaxBatch: 8, BatchWindow: 500 * time.Microsecond, DefaultTimeout: f.sc.deadline}
		for t, row := range replicas[e][1:] {
			// One frame through each rung's replica before the engine owns
			// it: a rung's first frame allocates its workspace, and which
			// rungs a run reaches must not decide its heap or its tail.
			if _, _, err := pipeline.RunInto(row[0], f.pool[t%len(f.pool)], &f.direct.trace, dev, sim); err != nil {
				return fmt.Errorf("warm-up of engine %d tier %d: %w", e, t+1, err)
			}
			cfg.Degrade = append(cfg.Degrade, serve.Tier{Name: fmt.Sprintf("tier%d", t+1), Nets: row})
		}
		if engines[e], err = serve.New(replicas[e][0], dev, sim, cfg); err != nil {
			return err
		}
	}
	// Retries and hedging stay off (nil policies): one Submit is one attempt.
	if f.router, err = serve.NewRouter(engines, serve.RouterConfig{QoS: serve.NewQoS(serve.QoSConfig{Classify: classify})}); err != nil {
		return err
	}
	// Warm each engine directly, both at once, so the router's counters
	// start at zero and offered equals the schedule length.
	warm := make([]error, fleetEngines)
	var wg sync.WaitGroup
	for e := range engines {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < f.sc.warm && warm[e] == nil; i++ {
				_, warm[e] = engines[e].Submit(context.Background(), serve.Request{Cloud: f.pool[i%len(f.pool)]})
			}
		}(e)
	}
	wg.Wait()
	if err := errors.Join(warm...); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	root := tr.add("setup", -1, -1, t0, time.Now())
	tr.add("generate", root, -1, t0, generated)
	return nil
}

func (f *fleet) run(d time.Duration, layers bool, tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	sched := schedule(f.seed, d, f.sc.calmFPS, f.sc.burstFPS, len(f.pool))
	before := f.router.Stats()
	start := time.Now()
	replies := replay(f.router, sched, f.names, f.pool)
	o.wall = time.Since(start)
	after := f.router.Stats()
	root := tr.add("replay", -1, -1, start, start.Add(o.wall))

	var es engineStats
	var lateMS []float64
	shedLevel := 0
	for i, r := range replies {
		o.offered++
		lateMS = append(lateMS, ms(r.sent-r.due))
		switch {
		case r.err == nil:
			o.completed++
			o.latMS = append(o.latMS, ms(r.latency()))
			if r.res.Tier == 0 {
				o.tier0++
			}
			if msg := f.refs[r.frame].check(r.res.Output, r.res.Tier); msg != "" {
				o.failed++
				o.problem("arrival %d (cloud %d): %s", i, r.frame, msg)
			} else if r.latency() <= f.sc.deadline {
				o.good++
			}
			sent := start.Add(r.sent)
			es.observe(r.res, tr.add("router.submit", root, i, sent, start.Add(r.done)), i, sent, tr)
		case errors.Is(r.err, serve.ErrShed):
			// The controller sheds classes lowest first: a shed tenant of
			// priority p means the level reached NumPriorities-p.
			if l := serve.NumPriorities - int(classify(f.names[r.tenant]).Priority); l > shedLevel {
				shedLevel = l
			}
		case errors.Is(r.err, serve.ErrQueueFull), errors.Is(r.err, serve.ErrThrottled), errors.Is(r.err, serve.ErrDeadline):
			// Refused or expired: expected under the burst, and counted
			// against goodput because the request was offered.
		default:
			o.failed++
			o.problem("arrival %d: %v", i, r.err)
		}
	}

	if err := after.Conservation(); err != nil {
		o.problem("%v", err)
	}
	offered := after.Offered - before.Offered
	if offered != uint64(len(sched)) {
		o.problem("router counted %d offered requests, the schedule holds %d", offered, len(sched))
	}
	stats := make([]serve.Stats, len(after.EngineStats))
	for e := range stats {
		stats[e] = statsDelta(after.EngineStats[e], before.EngineStats[e])
	}
	es.store(o.layer, stats)
	n := float64(len(sched))
	o.layer["serve.router.shed_overload_frac"] = float64(after.ShedOverload-before.ShedOverload) / n
	o.layer["serve.router.shed_queuefull_frac"] = float64(after.ShedQueueFull-before.ShedQueueFull) / n
	o.layer["serve.router.shed_throttled_frac"] = float64(after.ShedThrottled-before.ShedThrottled) / n
	o.layer["serve.router.spills"] = float64(after.Spills - before.Spills)
	o.layer["serve.router.shed_level_max"] = float64(shedLevel)
	// p95 needs two hundred arrivals; a shorter replay reports its latest send.
	late, err := percentile(lateMS, 0.95)
	if err != nil {
		late = quantile(lateMS, 1)
	}
	o.layer["bench.gen_late_p95_ms"] = late

	if layers {
		var fs frameStats
		for i, c := range f.pool {
			if err := f.direct.frame(c, len(sched)+i, tr, &fs); err != nil {
				return nil, err
			}
		}
		fs.store(o.layer)
	}
	return o, nil
}

func (f *fleet) probes(vals map[string]float64) error {
	w, _, err := w1(f.sc, f.sc.fleetPoints)
	if err != nil {
		return err
	}
	p := prober{vals, f.sc.probe}
	return errors.Join(
		p.geometry(f.pool[0], w.K, 2*w.K),
		p.matmul(f.direct.trace.Records),
		p.serve(f.pool[0]),
	)
}

func (f *fleet) close() error { return f.router.Close() }
