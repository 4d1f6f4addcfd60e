// Command edgepc-serve runs the concurrent batched inference engine
// (internal/serve) against a Table 1 workload: it builds a pool of
// weight-sharing model replicas, drives synthetic frames through the bounded
// queue from concurrent clients, and reports the serving metrics — latency
// quantiles, mean micro-batch size, throughput, and the backpressure /
// deadline counters.
//
// Usage:
//
//	edgepc-serve -workload W1 -config S+N -workers 2 -frames 64 -clients 4
//	edgepc-serve -quick -workload W3 -frames 8          # laptop-scale smoke
//	edgepc-serve -quick -degrade -chaos-panic 0.1       # ladder + chaos drill
//	edgepc-serve -quick -engines 4 -tenants 8 -qos-rate 50   # fleet router
//	edgepc-serve -quick -backend int8                   # quantized inference kernels
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
// -engines N (N > 1) switches to fleet mode: requests carry tenant/stream
// identities and route through the consistent-hash fleet router
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
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/edgesim"
	"repro/internal/faultinject"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/serve"
	"repro/internal/tensor"
)

func main() {
	var (
		workload = flag.String("workload", "W1", "Table 1 workload id (W1..W6)")
		config   = flag.String("config", "S+N", "execution config: baseline | S+N | S+N+F")
		workers  = flag.Int("workers", 2, "worker pool size (one model replica each)")
		queue    = flag.Int("queue", 0, "submission queue depth (0: 4x workers)")
		batch    = flag.Int("batch", 8, "max frames per micro-batch (1 disables batching)")
		window   = flag.Duration("window", 500*time.Microsecond, "micro-batch straggler wait")
		timeout  = flag.Duration("timeout", 0, "per-frame deadline (0: none)")
		frames   = flag.Int("frames", 32, "total frames to serve")
		clients  = flag.Int("clients", 4, "concurrent submitting clients")
		seed     = flag.Int64("seed", 1, "model and frame seed")
		quick    = flag.Bool("quick", false, "laptop-scale model and clouds (smoke mode)")
		backend  = flag.String("backend", "", "compute backend for the inference kernels: naive | blocked | int8 (default "+tensor.DefaultBackend+")")

		degrade      = flag.Bool("degrade", false, "arm the degradation ladder (PointNet++ workloads: "+pipeline.DegradeTierName+")")
		chaosPanic   = flag.Float64("chaos-panic", 0, "fault injection: fraction of frames that panic a worker")
		chaosCorrupt = flag.Float64("chaos-corrupt", 0, "fault injection: fraction of frames corrupted before admission")
		chaosStall   = flag.Float64("chaos-stall", 0, "fault injection: fraction of frames that wedge their worker")
		chaosSeed    = flag.Uint64("chaos-seed", 1, "fault-injection plan seed")

		stallTimeout = flag.Duration("stall-timeout", 0, "stall watchdog: fail a worker wedged past this on one frame (0: off)")
		retries      = flag.Int("retries", 0, "fleet mode: deadline-budgeted retry attempts for transient failures (0: off)")
		checkpoint   = flag.String("checkpoint", "", "restore weights from this crash-safe checkpoint before serving")

		engines  = flag.Int("engines", 1, "fleet size; >1 routes via the consistent-hash fleet router")
		tenants  = flag.Int("tenants", 4, "fleet mode: distinct tenant ids the clients cycle through")
		qosRate  = flag.Float64("qos-rate", 0, "fleet mode: per-tenant token-bucket rate, frames/s (0: unlimited)")
		qosBurst = flag.Float64("qos-burst", 0, "fleet mode: per-tenant burst capacity (0: max(rate,1))")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		// A boolean flag takes no value: "-degrade 2" would end flag parsing
		// at "2" and silently drop every flag after it.
		fmt.Fprintf(os.Stderr, "edgepc-serve: unexpected argument %q (the command takes flags only; -degrade takes no value)\n", flag.Arg(0))
		os.Exit(1)
	}
	if err := run(*workload, *config, *backend, *workers, *queue, *batch, *window, *timeout,
		*frames, *clients, *seed, *quick, *degrade, *chaosPanic, *chaosCorrupt, *chaosStall, *chaosSeed,
		*stallTimeout, *retries, *checkpoint,
		*engines, *tenants, *qosRate, *qosBurst); err != nil {
		fmt.Fprintln(os.Stderr, "edgepc-serve:", err)
		os.Exit(1)
	}
}

func parseConfig(s string) (pipeline.ConfigKind, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return pipeline.Baseline, nil
	case "s+n", "sn":
		return pipeline.SN, nil
	case "s+n+f", "snf":
		return pipeline.SNF, nil
	}
	return 0, fmt.Errorf("unknown config %q (want baseline, S+N or S+N+F)", s)
}

func run(workload, config, backend string, workers, queue, batch int, window, timeout time.Duration,
	frames, clients int, seed int64, quick, degrade bool, chaosPanic, chaosCorrupt, chaosStall float64, chaosSeed uint64,
	stallTimeout time.Duration, retries int, checkpoint string,
	engines, tenants int, qosRate, qosBurst float64) error {
	w, err := pipeline.WorkloadByID(workload)
	if err != nil {
		return err
	}
	kind, err := parseConfig(config)
	if err != nil {
		return err
	}
	// Fail a typo'd -backend before any replicas are built; the name itself is
	// resolved per replica inside pipeline.Build.
	if _, err := tensor.NewBackend(backend); err != nil {
		return err
	}
	if workers < 1 || clients < 1 || frames < 1 {
		return fmt.Errorf("workers, clients and frames must be positive")
	}
	if chaosPanic < 0 || chaosPanic > 1 || chaosCorrupt < 0 || chaosCorrupt > 1 || chaosStall < 0 || chaosStall > 1 {
		return fmt.Errorf("chaos fractions must be in [0,1]")
	}
	if engines < 1 || engines > 64 {
		return fmt.Errorf("engines must be 1..64")
	}
	if stallTimeout < 0 {
		return fmt.Errorf("-stall-timeout must be non-negative, got %v (0 disables the watchdog)", stallTimeout)
	}
	if retries < 0 {
		return fmt.Errorf("-retries must be non-negative, got %d (0 disables retries)", retries)
	}
	if engines == 1 && retries > 0 {
		return fmt.Errorf("-retries re-routes across a fleet: set -engines > 1 to use it")
	}
	if tenants < 1 || qosRate < 0 || qosBurst < 0 {
		return fmt.Errorf("tenants must be positive, qos-rate/qos-burst non-negative")
	}
	opts := pipeline.Options{Seed: seed, Backend: backend}
	if quick {
		w.Points, w.Batch = 256, 1
		opts.BaseWidth, opts.Depth, opts.Modules = 8, 2, 2
	}
	var tierOpts []pipeline.Options
	if degrade {
		if tierOpts = pipeline.DegradeTiers(w, opts, 1); len(tierOpts) == 0 {
			fmt.Printf("degradation ladder: no rung relieves load on %s (%s); serving without a ladder\n", w.ID, w.Model)
		}
	}
	if engines > 1 {
		return runFleet(w, kind, opts, tierOpts, engines, workers, queue, batch, window, timeout,
			frames, clients, seed, chaosPanic, chaosCorrupt, chaosStall, chaosSeed,
			stallTimeout, retries, checkpoint, tenants, qosRate, qosBurst)
	}
	rows, err := pipeline.TieredReplicas(w, kind, opts, workers, tierOpts)
	if err != nil {
		return err
	}
	if checkpoint != "" {
		// Replicas share weights: restoring into the first propagates to all.
		if err := pipeline.LoadCheckpoint(checkpoint, rows[0][0]); err != nil {
			return fmt.Errorf("-checkpoint %q: %w", checkpoint, err)
		}
	}
	cfg := serve.Config{
		QueueDepth:     queue,
		MaxBatch:       batch,
		BatchWindow:    window,
		DefaultTimeout: timeout,
		StallTimeout:   stallTimeout,
		Rebuild: func(worker, tier int) (pipeline.Net, error) {
			o := opts
			if tier > 0 {
				o = tierOpts[tier-1]
			}
			return pipeline.RebuildReplica(rows[0][0], w, kind, o)
		},
	}
	for _, row := range rows[1:] {
		cfg.Degrade = append(cfg.Degrade, serve.Tier{Name: pipeline.DegradeTierName, Nets: row})
	}
	if chaosPanic > 0 || chaosCorrupt > 0 || chaosStall > 0 {
		cfg.Faults = &faultinject.Plan{Seed: chaosSeed, PanicFrac: chaosPanic, CorruptFrac: chaosCorrupt, StallFrac: chaosStall}
	}
	engine, err := serve.New(rows[0], edgesim.JetsonAGXXavier(), pipeline.SimConfig(w, kind, opts), cfg)
	if err != nil {
		return err
	}

	// A small pool of distinct frames, reused round-robin: frame generation is
	// not what this harness measures.
	nPool := frames
	if nPool > 8 {
		nPool = 8
	}
	pool := make([]*geom.Cloud, nPool)
	for i := range pool {
		if pool[i], err = pipeline.Frame(w, seed+int64(i)); err != nil {
			return err
		}
	}

	fmt.Printf("edgepc-serve: %s %s, %d workers, %d clients, %d frames (%d points each)\n",
		w.ID, kind, workers, clients, frames, w.Points)
	if backend != "" {
		fmt.Printf("compute backend: %s\n", backend)
	}
	if len(tierOpts) > 0 {
		fmt.Printf("degradation ladder: armed (%s)\n", pipeline.DegradeTierName)
	}
	if cfg.Faults != nil {
		fmt.Printf("chaos: panic %.0f%%, corrupt %.0f%%, stall %.0f%% (seed %d)\n",
			chaosPanic*100, chaosCorrupt*100, chaosStall*100, chaosSeed)
	}
	if checkpoint != "" {
		fmt.Printf("restored weights from checkpoint %s\n", checkpoint)
	}
	if stallTimeout > 0 {
		fmt.Printf("stall watchdog armed at %v\n", stallTimeout)
	}

	var next, okCount, deadlineCount, panicCount, stalledCount, invalidCount, backoffs atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(frames) {
					return
				}
				req := serve.Request{Cloud: pool[i%int64(nPool)]}
				for {
					_, err := engine.Submit(context.Background(), req)
					switch {
					case err == nil:
						okCount.Add(1)
					case errors.Is(err, serve.ErrQueueFull):
						// Backpressure: yield briefly and resubmit.
						backoffs.Add(1)
						time.Sleep(200 * time.Microsecond)
						continue
					case errors.Is(err, serve.ErrDeadline):
						deadlineCount.Add(1)
					case errors.Is(err, serve.ErrPanic):
						// Isolated: the frame failed but the engine serves on.
						panicCount.Add(1)
					case errors.Is(err, serve.ErrStalled):
						// Watchdog-failed: the wedged worker was deposed.
						stalledCount.Add(1)
					case errors.Is(err, serve.ErrInvalidInput):
						invalidCount.Add(1)
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
	if err := engine.Close(); err != nil {
		return err
	}
	if e, ok := firstErr.Load().(error); ok {
		return e
	}

	s := engine.Stats()
	fmt.Printf("served %d frames: %d ok, %d deadline-dropped (%d backpressure retries)\n",
		okCount.Load()+deadlineCount.Load(), okCount.Load(), deadlineCount.Load(), backoffs.Load())
	fmt.Printf("latency p50 %v p90 %v p99 %v max %v (window of %d)\n",
		s.Latency.P50.Round(time.Microsecond), s.Latency.P90.Round(time.Microsecond),
		s.Latency.P99.Round(time.Microsecond), s.Latency.Max.Round(time.Microsecond), s.Latency.Window)
	fmt.Printf("batches: %d (mean %.2f frames/batch), throughput %.0f frames/s\n",
		s.Batches, s.MeanBatch, float64(okCount.Load())/elapsed.Seconds())
	fmt.Printf("resilience: %d panics (%d quarantines, %d breaker trips), %d stalls / %d respawns, %d invalid, %d step-downs / %d step-ups\n",
		s.Panics, s.Quarantines, s.BreakerTrips, s.Stalls, s.Respawns, s.Invalid, s.StepDowns, s.StepUps)
	if n := stalledCount.Load(); n > 0 {
		fmt.Printf("  %d frames failed by the stall watchdog\n", n)
	}
	for tier, n := range s.Degraded {
		if tier > 0 && n > 0 {
			fmt.Printf("  tier %d (%s): %d frames\n", tier, engine.TierName(tier), n)
		}
	}
	return nil
}

// runFleet drives a multi-engine fleet through the consistent-hash router
// (internal/serve.Router): weight-sharing replicas fleet-wide
// (pipeline.FleetReplicas), per-tenant QoS token buckets, priority load
// shedding and spillover, with clients cycling tenant/stream identities.
func runFleet(w pipeline.Workload, kind pipeline.ConfigKind, opts pipeline.Options, tierOpts []pipeline.Options,
	engines, workers, queue, batch int, window, timeout time.Duration,
	frames, clients int, seed int64, chaosPanic, chaosCorrupt, chaosStall float64, chaosSeed uint64,
	stallTimeout time.Duration, retryMax int, checkpoint string,
	tenants int, qosRate, qosBurst float64) error {
	fleet, err := pipeline.FleetReplicas(w, kind, opts, engines, workers, tierOpts)
	if err != nil {
		return err
	}
	if checkpoint != "" {
		// The whole fleet shares weights: restoring into the first replica of
		// the first engine propagates everywhere.
		if err := pipeline.LoadCheckpoint(checkpoint, fleet[0][0][0]); err != nil {
			return fmt.Errorf("-checkpoint %q: %w", checkpoint, err)
		}
	}
	pool := make([]*serve.Engine, engines)
	for e := range pool {
		cfg := serve.Config{
			QueueDepth:     queue,
			MaxBatch:       batch,
			BatchWindow:    window,
			DefaultTimeout: timeout,
			StallTimeout:   stallTimeout,
			Rebuild: func(worker, tier int) (pipeline.Net, error) {
				o := opts
				if tier > 0 {
					o = tierOpts[tier-1]
				}
				return pipeline.RebuildReplica(fleet[0][0][0], w, kind, o)
			},
		}
		for _, row := range fleet[e][1:] {
			cfg.Degrade = append(cfg.Degrade, serve.Tier{Name: pipeline.DegradeTierName, Nets: row})
		}
		if chaosPanic > 0 || chaosCorrupt > 0 || chaosStall > 0 {
			cfg.Faults = &faultinject.Plan{Seed: chaosSeed + uint64(e),
				PanicFrac: chaosPanic, CorruptFrac: chaosCorrupt, StallFrac: chaosStall}
		}
		eng, err := serve.New(fleet[e][0], edgesim.JetsonAGXXavier(), pipeline.SimConfig(w, kind, opts), cfg)
		if err != nil {
			return err
		}
		pool[e] = eng
	}
	rcfg := serve.RouterConfig{}
	if qosRate > 0 {
		rcfg.QoS = serve.NewQoS(serve.QoSConfig{Default: serve.TenantLimit{Rate: qosRate, Burst: qosBurst}})
	}
	if retryMax > 0 {
		rcfg.Retry = &serve.RetryPolicy{Max: retryMax}
	}
	router, err := serve.NewRouter(pool, rcfg)
	if err != nil {
		return err
	}

	nPool := frames
	if nPool > 8 {
		nPool = 8
	}
	cloudPool := make([]*geom.Cloud, nPool)
	for i := range cloudPool {
		if cloudPool[i], err = pipeline.Frame(w, seed+int64(i)); err != nil {
			return err
		}
	}

	fmt.Printf("edgepc-serve: %s %s fleet, %d engines x %d workers, %d clients, %d frames over %d tenants\n",
		w.ID, kind, engines, workers, clients, frames, tenants)
	if qosRate > 0 {
		fmt.Printf("qos: %.3g frames/s per tenant (burst %.3g)\n", qosRate, qosBurst)
	}
	if checkpoint != "" {
		fmt.Printf("restored weights from checkpoint %s\n", checkpoint)
	}
	if retryMax > 0 {
		fmt.Printf("survivability: %d retries (stall watchdog %v)\n", retryMax, stallTimeout)
	}

	var next, okCount, shedCount, failCount, retries atomic.Int64
	var firstErr atomic.Value
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(frames) {
					return
				}
				tenant := fmt.Sprintf("tenant-%d", i%int64(tenants))
				req := serve.FleetRequest{
					Request: serve.Request{Cloud: cloudPool[i%int64(nPool)]},
					Tenant:  tenant,
					Stream:  fmt.Sprintf("%s-cam%d", tenant, i%2),
				}
				for {
					_, err := router.Submit(context.Background(), req)
					switch {
					case err == nil:
						okCount.Add(1)
					case errors.Is(err, serve.ErrQueueFull):
						// Owner and spill candidates all full: yield, resubmit.
						retries.Add(1)
						time.Sleep(200 * time.Microsecond)
						continue
					case errors.Is(err, serve.ErrThrottled), errors.Is(err, serve.ErrShed):
						shedCount.Add(1)
					case errors.Is(err, serve.ErrDeadline), errors.Is(err, serve.ErrPanic),
						errors.Is(err, serve.ErrStalled), errors.Is(err, serve.ErrInvalidInput):
						failCount.Add(1)
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
	s := router.Stats()
	if err := router.Close(); err != nil {
		return err
	}
	if e, ok := firstErr.Load().(error); ok {
		return e
	}

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
		s.Latency.P99.Round(time.Microsecond), float64(okCount.Load())/elapsed.Seconds(), retries.Load())
	shares := make([]float64, 0, len(s.Tenants))
	for _, ts := range s.Tenants {
		shares = append(shares, float64(ts.Completed))
	}
	fmt.Printf("fleet fairness: %.3f (Jain, completed frames over %d tenants)\n", metrics.JainFairness(shares), len(s.Tenants))
	for i, es := range s.EngineStats {
		fmt.Printf("  engine %d: %d completed, %d step-downs, quarantined=%v\n", i, es.Completed, es.StepDowns, s.Quarantined[i])
	}
	if shed := shedCount.Load(); shed > 0 {
		fmt.Printf("clients saw %d sheds, %d frame failures\n", shed, failCount.Load())
	}
	return nil
}
