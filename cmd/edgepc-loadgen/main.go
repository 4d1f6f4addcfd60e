// Command edgepc-loadgen is the deterministic fleet traffic harness
// (internal/loadgen): an open-loop discrete-event simulation of the serving
// fleet's control plane — the real consistent-hash ring, token-bucket QoS
// and shed controller from internal/serve on a virtual clock — driven by
// Pareto heavy-tailed arrivals, a diurnal ramp and Zipf tenant skew. Same
// seed ⇒ bit-identical admit/shed/degrade counts, at million-arrival scale,
// in wall seconds.
//
// Usage:
//
//	edgepc-loadgen -quick                               # CI-scale smoke
//	edgepc-loadgen -out BENCH_serve.json                # full overload grid
//	edgepc-loadgen -calibrate -workload W1 -config S+N  # measured svc times
//	edgepc-loadgen -scenario 'seed=7;engines=8;qos-rate=50'
//
// Per scenario multiplier it prints one stable "scenario mult=..." count
// line (what CI diffs across two same-seed runs) plus a human summary, and
// the goodput-under-stall-storm sweep prints one "survivability ..." line
// per (multiplier, recovery policy); -out writes the full BENCH_serve.json
// report.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"repro/internal/loadgen"
	"repro/internal/pipeline"
)

func main() {
	var (
		scenario  = flag.String("scenario", "", "spec overrides, 'key=value;key=value' (see internal/loadgen ParseSpec)")
		seed      = flag.Uint64("seed", 0, "PRNG seed override (0: keep spec seed)")
		quick     = flag.Bool("quick", false, "CI-scale preset: 2 engines, 400ms virtual window")
		mults     = flag.String("mults", "1,10,100", "overload multipliers for the scenario grid")
		crossover = flag.String("crossover", "1,2,5,10,20,50,100", "multipliers for the shed-vs-degrade crossover sweep")
		out       = flag.String("out", "", "write BENCH_serve.json report here ('-' for stdout)")

		calibrate = flag.Bool("calibrate", false, "measure per-tier service times from the real pipeline instead of the pinned defaults")
		workload  = flag.String("workload", "W1", "calibration: Table 1 workload id")
		config    = flag.String("config", "S+N", "calibration: execution config (baseline | S+N | S+N+F)")
		calFrames = flag.Int("cal-frames", 3, "calibration: frames measured per tier (min taken)")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "edgepc-loadgen: unexpected argument %q (the command takes flags only)\n", flag.Arg(0))
		os.Exit(1)
	}
	if err := run(*scenario, *seed, *quick, *mults, *crossover, *out,
		*calibrate, *workload, *config, *calFrames); err != nil {
		fmt.Fprintln(os.Stderr, "edgepc-loadgen:", err)
		os.Exit(1)
	}
}

func run(scenario string, seed uint64, quick bool, multsArg, crossArg, out string,
	calibrate bool, workload, config string, calFrames int) error {
	base := loadgen.Defaults()
	if quick {
		base = loadgen.Quick()
	}
	var cal *loadgen.Calibration
	if calibrate {
		c, svc, err := calibrateSvc(workload, config, quick, calFrames)
		if err != nil {
			return err
		}
		cal, base.SvcTiers = c, svc
	}
	spec, err := loadgen.ParseSpec(scenario, base)
	if err != nil {
		return err
	}
	if cal != nil && !slices.Equal(spec.SvcTiers, base.SvcTiers) {
		return fmt.Errorf("-calibrate measures the service times that -scenario svc=%v would replace: pass one or the other", spec.SvcTiers)
	}
	if seed != 0 {
		spec.Seed = seed
	}
	mults, err := loadgen.ParseMults(multsArg)
	if err != nil {
		return err
	}
	cross, err := loadgen.ParseMults(crossArg)
	if err != nil {
		return err
	}

	rep, err := loadgen.BuildReport(spec, mults, cross, cal)
	if err != nil {
		return err
	}

	fmt.Printf("edgepc-loadgen: %d engines x %d workers, %d tenants (zipf %.2f), %.0f fps at 1x, seed %d, %v virtual\n",
		spec.Engines, spec.Workers, spec.Tenants, spec.ZipfS, spec.EffectiveRate(), spec.Seed, spec.Duration)
	if cal != nil {
		fmt.Printf("calibrated %s %s: svc/tier %v\n", cal.Workload, cal.Config, cal.SvcNsTier)
	}
	for _, sc := range rep.Scenarios {
		fmt.Println(loadgen.CountLine(sc))
		fmt.Printf("  p50 %.3fms p99 %.3fms goodput %.0f fps (%.1f%% of offered) full-fidelity %.1f%% fairness %.3f\n",
			sc.P50Ms, sc.P99Ms, sc.GoodputFPS,
			pct(sc.Completed, sc.Offered), sc.FullFidelityFrac*100, sc.FairnessJain)
		for _, cl := range sc.Classes {
			fmt.Printf("  class %-6s offered %-8d completed %-8d shed %-8d p99 %.3fms\n",
				cl.Priority, cl.Offered, cl.Completed, cl.Shed, cl.P99Ms)
		}
	}
	fmt.Println("crossover (shed vs degrade):")
	for _, p := range rep.Crossover {
		fmt.Printf("  mult %6.1f: shed %5.1f%% degraded %5.1f%% goodput %8.0f fps p99 %8.3fms level %d\n",
			p.Mult, p.ShedFrac*100, p.DegradedFrac*100, p.GoodputFPS, p.P99Ms, p.ShedLevelMax)
	}
	fmt.Println("survivability (goodput under a stall storm, per recovery policy):")
	for _, p := range rep.Survivability {
		fmt.Println(loadgen.SurvLine(p))
		fmt.Printf("  mult %6.1f %-12s goodput %8.0f fps (%.1f%% of offered) p99 %8.3fms\n",
			p.Mult, p.Policy, p.GoodputFPS, p.GoodFrac*100, p.P99Ms)
	}

	if out == "" {
		return nil
	}
	if out == "-" {
		return rep.WriteJSON(os.Stdout)
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func pct(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// calibrateSvc measures the per-tier service time by running frames through
// the real pipeline at each degradation rung: tier 0 is the base config,
// tiers 1+ whatever pipeline.DegradeTiers derives for the workload (nothing
// for DGCNN, which then simulates without a ladder). The minimum over
// cal-frames forwards is taken (least-noise estimate). The measured times
// then become spec *inputs*, so the simulation itself stays bit-reproducible.
func calibrateSvc(workload, config string, quick bool, frames int) (*loadgen.Calibration, []time.Duration, error) {
	w, err := pipeline.WorkloadByID(workload)
	if err != nil {
		return nil, nil, err
	}
	kind, err := parseConfig(config)
	if err != nil {
		return nil, nil, err
	}
	if frames < 1 {
		return nil, nil, fmt.Errorf("cal-frames must be >= 1")
	}
	opts := pipeline.Options{Seed: 1}
	if quick {
		w.Points, w.Batch = 256, 1
		opts.BaseWidth, opts.Depth, opts.Modules = 8, 2, 2
	}
	rows, err := pipeline.TieredReplicas(w, kind, opts, 1, pipeline.DegradeTiers(w, opts, 1))
	if err != nil {
		return nil, nil, err
	}
	frame, err := pipeline.Frame(w, 1)
	if err != nil {
		return nil, nil, err
	}
	cal := &loadgen.Calibration{Workload: w.ID, Config: kind.String(), Frames: frames}
	svc := make([]time.Duration, len(rows))
	for ti, row := range rows {
		net := row[0]
		if _, err := net.Forward(frame, nil, false); err != nil { // warm caches
			return nil, nil, fmt.Errorf("calibrate tier %d: %w", ti, err)
		}
		best := time.Duration(1<<63 - 1)
		for f := 0; f < frames; f++ {
			start := time.Now()
			if _, err := net.Forward(frame, nil, false); err != nil {
				return nil, nil, fmt.Errorf("calibrate tier %d: %w", ti, err)
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		if best < time.Microsecond {
			best = time.Microsecond
		}
		svc[ti] = best
		cal.SvcNsTier = append(cal.SvcNsTier, best.Nanoseconds())
	}
	for _, d := range svc {
		cal.Speedup = append(cal.Speedup, float64(svc[0])/float64(d))
	}
	return cal, svc, nil
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
