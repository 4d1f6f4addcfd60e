// Command edgepc-serve runs the concurrent inference engine (internal/serve)
// against a Table 1 workload: it builds a pool of weight-sharing model
// replicas, drives synthetic frames through the bounded queue from
// concurrent clients, and reports the serving metrics — latency quantiles,
// throughput, and the backpressure / deadline counters.
//
// Usage:
//
//	edgepc-serve -workload W1 -config S+N -workers 2 -frames 64 -clients 4
//	edgepc-serve -quick -workload W3 -frames 8          # laptop-scale smoke
//	edgepc-serve -quick -degrade -chaos-panic 0.1       # ladder + chaos drill
//	edgepc-serve -quick -engines 4 -tenants 8 -qos-rate 50   # fleet router
//	edgepc-serve -quick -chaos-stall 0.1 -stall-timeout 2ms  # watchdog drill
//	edgepc-serve -quick -engines 3 -retries 2           # survivable fleet
//	edgepc-serve -quick -checkpoint ckpt.epck           # restore weights first
//
// -quick shrinks the model and cloud far below the paper's scale so the
// command completes in seconds on a development machine. -degrade arms the
// degradation ladder (pipeline.DegradeTiers: one cheaper rung for PointNet++
// workloads, none for DGCNN) that steps down under queue pressure instead of
// rejecting; -chaos-* thread a deterministic fault-injection plan
// (internal/faultinject) through the engine to demonstrate panic isolation
// and admission rejection live.
// -engines N builds N engines over one weight set; one engine takes frames
// through Engine.Submit, and N > 1 is fleet mode: requests carry
// tenant/stream identities and route through the consistent-hash fleet router
// (serve.Router) with optional per-tenant QoS token buckets (-qos-rate,
// -qos-burst), priority load shedding, spillover, and quarantine.
//
// Survivability knobs (DESIGN.md §15): -stall-timeout arms the per-worker
// stall watchdog (wedged frames fail with ErrStalled and the slot is
// respawned); -chaos-stall injects deterministic worker stalls to drill it;
// -retries (fleet mode) arms deadline-budgeted retries on the router;
// -checkpoint restores weights from a crash-safe checkpoint (edgepc-train
// -checkpoint) into the shared parameters before serving.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// options is one invocation's flags.
type options struct {
	workload, config string
	workers, queue   int
	timeout          time.Duration
	frames, clients  int
	seed             int64
	quick, degrade   bool

	chaosPanic, chaosCorrupt, chaosStall float64
	chaosSeed                            uint64

	stallTimeout time.Duration
	retries      int
	checkpoint   string

	engines, tenants  int
	tenantsSet        bool // -tenants given on the command line
	qosRate, qosBurst float64
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "W1", "Table 1 workload id (W1..W6)")
	flag.StringVar(&o.config, "config", "S+N", "execution config: baseline | S+N | S+N+F")
	flag.IntVar(&o.workers, "workers", 2, "worker pool size (one model replica each)")
	flag.IntVar(&o.queue, "queue", 0, "submission queue depth (0: 4x workers)")
	flag.DurationVar(&o.timeout, "timeout", 0, "per-frame deadline (0: none)")
	flag.IntVar(&o.frames, "frames", 32, "total frames to serve")
	flag.IntVar(&o.clients, "clients", 4, "concurrent submitting clients")
	flag.Int64Var(&o.seed, "seed", 1, "model and frame seed")
	flag.BoolVar(&o.quick, "quick", false, "laptop-scale model and clouds (smoke mode)")

	flag.BoolVar(&o.degrade, "degrade", false, "arm the degradation ladder (PointNet++ workloads: "+pipeline.DegradeTierName+")")
	flag.Float64Var(&o.chaosPanic, "chaos-panic", 0, "fault injection: fraction of frames that panic a worker")
	flag.Float64Var(&o.chaosCorrupt, "chaos-corrupt", 0, "fault injection: fraction of frames corrupted before admission")
	flag.Float64Var(&o.chaosStall, "chaos-stall", 0, "fault injection: fraction of frames that wedge their worker")
	flag.Uint64Var(&o.chaosSeed, "chaos-seed", 1, "fault-injection plan seed")

	flag.DurationVar(&o.stallTimeout, "stall-timeout", 0, "stall watchdog: fail a worker wedged past this on one frame (0: off)")
	flag.IntVar(&o.retries, "retries", 0, "fleet mode: deadline-budgeted retry attempts for transient failures (0: off)")
	flag.StringVar(&o.checkpoint, "checkpoint", "", "restore weights from this crash-safe checkpoint before serving")

	flag.IntVar(&o.engines, "engines", 1, "fleet size; >1 routes via the consistent-hash fleet router")
	flag.IntVar(&o.tenants, "tenants", 4, "fleet mode: distinct tenant ids the clients cycle through")
	flag.Float64Var(&o.qosRate, "qos-rate", 0, "fleet mode: per-tenant token-bucket rate, frames/s (0: unlimited)")
	flag.Float64Var(&o.qosBurst, "qos-burst", 0, "fleet mode: per-tenant burst capacity (0: max(rate,1))")
	flag.Parse()
	flag.Visit(func(f *flag.Flag) { o.tenantsSet = o.tenantsSet || f.Name == "tenants" })
	if flag.NArg() > 0 {
		// A boolean flag takes no value: "-degrade 2" would end flag parsing
		// at "2" and silently drop every flag after it.
		fmt.Fprintf(os.Stderr, "edgepc-serve: unexpected argument %q (the command takes flags only; -degrade takes no value)\n", flag.Arg(0))
		os.Exit(1)
	}
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "edgepc-serve:", err)
		os.Exit(1)
	}
}

func (o options) validate() error {
	if o.workers < 1 || o.clients < 1 || o.frames < 1 {
		return fmt.Errorf("workers, clients and frames must be positive")
	}
	if o.chaosPanic < 0 || o.chaosPanic > 1 || o.chaosCorrupt < 0 || o.chaosCorrupt > 1 || o.chaosStall < 0 || o.chaosStall > 1 {
		return fmt.Errorf("chaos fractions must be in [0,1]")
	}
	if o.engines < 1 || o.engines > 64 {
		return fmt.Errorf("engines must be 1..64")
	}
	if o.stallTimeout < 0 {
		return fmt.Errorf("-stall-timeout must be non-negative, got %v (0 disables the watchdog)", o.stallTimeout)
	}
	if o.retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d (0 disables retries)", o.retries)
	}
	// One engine takes frames straight through Engine.Submit: the router's
	// flags would be ignored there, so they are refused.
	if o.engines == 1 {
		switch {
		case o.retries > 0:
			return fmt.Errorf("-retries re-routes across a fleet: set -engines > 1 to use it")
		case o.qosRate != 0:
			return fmt.Errorf("-qos-rate throttles tenants at the fleet router: set -engines > 1 to use it")
		case o.qosBurst != 0:
			return fmt.Errorf("-qos-burst sizes the fleet router's tenant buckets: set -engines > 1 to use it")
		case o.tenantsSet:
			return fmt.Errorf("-tenants names the fleet router's tenants: set -engines > 1 to use it")
		}
	}
	if o.tenants < 1 || o.qosRate < 0 || o.qosBurst < 0 {
		return fmt.Errorf("tenants must be positive, qos-rate/qos-burst non-negative")
	}
	return nil
}

// tally counts the clients' view of their frames' outcomes.
type tally struct{ ok, backoffs, shed, deadline, stalled, failed atomic.Int64 }

// run serves o.frames frames on o.engines engines that share one weight set.
// One engine takes them straight through Engine.Submit, where a full queue
// is backpressure; a fleet routes them through serve.Router, whose QoS and
// shed controller may drop them.
func run(o options) error {
	w, err := pipeline.WorkloadByID(o.workload)
	if err != nil {
		return err
	}
	kind, err := pipeline.ParseConfig(o.config)
	if err != nil {
		return err
	}
	if err := o.validate(); err != nil {
		return err
	}
	opts := pipeline.Options{Seed: o.seed}
	if o.quick {
		w, opts = pipeline.Quick(w, opts)
	}
	var tierOpts []pipeline.Options
	if o.degrade {
		if tierOpts = pipeline.DegradeTiers(w, opts, 1); len(tierOpts) == 0 {
			fmt.Printf("degradation ladder: no rung relieves load on %s (%s); serving without a ladder\n", w.ID, w.Model)
		}
	}
	fleet, err := pipeline.FleetReplicas(w, kind, opts, o.engines, o.workers, tierOpts)
	if err != nil {
		return err
	}
	ref := fleet[0][0][0]
	if o.checkpoint != "" {
		// Every replica shares ref's weights: restoring into it restores all.
		if err := pipeline.LoadCheckpoint(o.checkpoint, ref); err != nil {
			return fmt.Errorf("-checkpoint %q: %w", o.checkpoint, err)
		}
	}
	rebuild := func(worker, tier int) (pipeline.Net, error) {
		topt := opts
		if tier > 0 {
			topt = tierOpts[tier-1]
		}
		return pipeline.RebuildReplica(ref, w, kind, topt)
	}
	chaos := o.chaosPanic > 0 || o.chaosCorrupt > 0 || o.chaosStall > 0
	engines := make([]*serve.Engine, o.engines)
	for e := range engines {
		cfg := serve.Config{QueueDepth: o.queue, DefaultTimeout: o.timeout, StallTimeout: o.stallTimeout, Rebuild: rebuild}
		for _, row := range fleet[e][1:] {
			cfg.Degrade = append(cfg.Degrade, serve.Tier{Name: pipeline.DegradeTierName, Nets: row})
		}
		if chaos {
			cfg.Faults = &faultinject.Plan{Seed: o.chaosSeed + uint64(e),
				PanicFrac: o.chaosPanic, CorruptFrac: o.chaosCorrupt, StallFrac: o.chaosStall}
		}
		if engines[e], err = serve.NewEngine(fleet[e][0], cfg); err != nil {
			return err
		}
	}
	ctx := context.Background()
	submit := func(req serve.FleetRequest) error {
		_, err := engines[0].Submit(ctx, req.Request)
		return err
	}
	closeAll := engines[0].Close
	var router *serve.Router
	if o.engines > 1 {
		rcfg := serve.RouterConfig{}
		if o.qosRate > 0 {
			rcfg.QoS = serve.NewQoS(serve.QoSConfig{Default: serve.TenantLimit{Rate: o.qosRate, Burst: o.qosBurst}})
		}
		if o.retries > 0 {
			rcfg.Retry = &serve.RetryPolicy{Max: o.retries}
		}
		if router, err = serve.NewRouter(engines, rcfg); err != nil {
			return err
		}
		submit = func(req serve.FleetRequest) error {
			_, err := router.Submit(ctx, req)
			return err
		}
		closeAll = router.Close
	}

	// A small pool of distinct frames, reused round-robin: frame generation is
	// not what this harness measures.
	pool := make([]*geom.Cloud, min(o.frames, 8))
	for i := range pool {
		if pool[i], err = pipeline.Frame(w, o.seed+int64(i)); err != nil {
			return err
		}
	}

	if router == nil {
		fmt.Printf("edgepc-serve: %s %s, %d workers, %d clients, %d frames (%d points each)\n",
			w.ID, kind, o.workers, o.clients, o.frames, w.Points)
	} else {
		fmt.Printf("edgepc-serve: %s %s fleet, %d engines x %d workers, %d clients, %d frames over %d tenants\n",
			w.ID, kind, o.engines, o.workers, o.clients, o.frames, o.tenants)
	}
	if len(tierOpts) > 0 {
		fmt.Printf("degradation ladder: armed (%s)\n", pipeline.DegradeTierName)
	}
	if chaos {
		fmt.Printf("chaos: panic %.0f%%, corrupt %.0f%%, stall %.0f%% (seed %d)\n",
			o.chaosPanic*100, o.chaosCorrupt*100, o.chaosStall*100, o.chaosSeed)
	}
	if o.qosRate > 0 {
		fmt.Printf("qos: %.3g frames/s per tenant (burst %.3g)\n", o.qosRate, o.qosBurst)
	}
	if o.checkpoint != "" {
		fmt.Printf("restored weights from checkpoint %s\n", o.checkpoint)
	}
	if o.stallTimeout > 0 {
		fmt.Printf("stall watchdog armed at %v\n", o.stallTimeout)
	}
	if o.retries > 0 {
		fmt.Printf("survivability: %d retries (stall watchdog %v)\n", o.retries, o.stallTimeout)
	}

	var t tally
	var next atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < o.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(o.frames) {
					return
				}
				tenant := fmt.Sprintf("tenant-%d", i%int64(o.tenants))
				req := serve.FleetRequest{
					Request: serve.Request{Cloud: pool[i%int64(len(pool))]},
					Tenant:  tenant,
					Stream:  fmt.Sprintf("%s-cam%d", tenant, i%2),
				}
				for {
					err := submit(req)
					switch {
					case err == nil:
						t.ok.Add(1)
					case errors.Is(err, serve.ErrQueueFull):
						// Backpressure (on a fleet: the owner and every spill
						// candidate full): yield briefly and resubmit.
						t.backoffs.Add(1)
						time.Sleep(200 * time.Microsecond)
						continue
					case errors.Is(err, serve.ErrThrottled), errors.Is(err, serve.ErrShed):
						t.shed.Add(1)
					case errors.Is(err, serve.ErrDeadline):
						t.deadline.Add(1)
					case errors.Is(err, serve.ErrStalled):
						// Watchdog-failed: the wedged worker was deposed.
						t.stalled.Add(1)
					case errors.Is(err, serve.ErrPanic), errors.Is(err, serve.ErrInvalidInput):
						// Isolated: the frame failed but the engine serves on.
						t.failed.Add(1)
					default:
						firstErr.CompareAndSwap(nil, err)
					}
					break
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if err := closeAll(); err != nil {
		return err
	}
	if e, ok := firstErr.Load().(error); ok {
		return e
	}
	if router == nil {
		reportEngine(engines[0], &t, elapsed)
		return nil
	}
	return reportFleet(router.Stats(), &t, elapsed)
}

func reportEngine(engine *serve.Engine, t *tally, elapsed time.Duration) {
	s := engine.Stats()
	fmt.Printf("served %d frames: %d ok, %d deadline-dropped (%d backpressure retries)\n",
		t.ok.Load()+t.deadline.Load(), t.ok.Load(), t.deadline.Load(), t.backoffs.Load())
	fmt.Printf("latency p50 %v p90 %v p99 %v max %v (window of %d)\n",
		s.Latency.P50.Round(time.Microsecond), s.Latency.P90.Round(time.Microsecond),
		s.Latency.P99.Round(time.Microsecond), s.Latency.Max.Round(time.Microsecond), s.Latency.Window)
	fmt.Printf("throughput %.0f frames/s\n", float64(t.ok.Load())/elapsed.Seconds())
	fmt.Printf("resilience: %d panics (%d quarantines, %d breaker trips), %d stalls / %d respawns, %d invalid, %d step-downs / %d step-ups\n",
		s.Panics, s.Quarantines, s.BreakerTrips, s.Stalls, s.Respawns, s.Invalid, s.StepDowns, s.StepUps)
	if n := t.stalled.Load(); n > 0 {
		fmt.Printf("  %d frames failed by the stall watchdog\n", n)
	}
	for tier, n := range s.Degraded {
		if tier > 0 && n > 0 {
			fmt.Printf("  tier %d (%s): %d frames\n", tier, engine.TierName(tier), n)
		}
	}
}

func reportFleet(s serve.RouterStats, t *tally, elapsed time.Duration) error {
	fmt.Printf("fleet: %d offered, %d completed, %d failed, shed %d/%d/%d (throttle/overload/queue), %d spills, %d quarantines\n",
		s.Offered, s.Completed, s.Failed, s.ShedThrottled, s.ShedOverload, s.ShedQueueFull, s.Spills, s.Quarantines)
	if s.Retries > 0 || s.Stalls > 0 {
		fmt.Printf("survivability: %d retries, %d stalled attempts\n", s.Retries, s.Stalls)
	}
	if err := s.Conservation(); err != nil {
		return err
	}
	fmt.Printf("fleet latency p50 %v p90 %v p99 %v, throughput %.0f frames/s (%d backpressure retries)\n",
		s.Latency.P50.Round(time.Microsecond), s.Latency.P90.Round(time.Microsecond),
		s.Latency.P99.Round(time.Microsecond), float64(t.ok.Load())/elapsed.Seconds(), t.backoffs.Load())
	shares := make([]float64, 0, len(s.Tenants))
	for _, ts := range s.Tenants {
		shares = append(shares, float64(ts.Completed))
	}
	fmt.Printf("fleet fairness: %.3f (Jain, completed frames over %d tenants)\n", metrics.JainFairness(shares), len(s.Tenants))
	for i, es := range s.EngineStats {
		fmt.Printf("  engine %d: %d completed, %d step-downs, quarantined=%v\n", i, es.Completed, es.StepDowns, s.Quarantined[i])
	}
	if shed := t.shed.Load(); shed > 0 {
		fmt.Printf("clients saw %d sheds, %d frame failures\n", shed, t.deadline.Load()+t.stalled.Load()+t.failed.Load())
	}
	return nil
}
