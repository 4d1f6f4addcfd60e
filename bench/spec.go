package main

import (
	"fmt"
	"regexp"
	"time"
)

// driverVersion names the measuring code; it goes into every result header
// so files taken with different drivers are never compared silently.
const driverVersion = "2"

// metricSpec is one row of BENCHMARK.json's end_to_end or per_layer list.
// Bound is the share of the old value by which the metric may get worse
// before -compare prints "worse"; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload reports
// every row; they are timed with the traced pass off.
//
// The bounds are what a shared two-core host supports, not what one would
// wish for: README "Sizing" has the spreads they were chosen from.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"throughput_fps", "ops/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"goodput_frac", "fraction", "higher", 0.20},
	{"full_fidelity_frac", "fraction", "higher", 0.25},
	{"heap_mb", "MB", "lower", 0.10},
	{"allocs_per_op", "count", "lower", 0.15},
}

// perLayer lists the single-layer numbers of the traced run. The prefix is
// the module the number belongs to.
var perLayer = []metricSpec{
	{Name: "model.stage.sample_ms", Unit: "ms", Better: "lower"},
	{Name: "model.stage.neighbor_ms", Unit: "ms", Better: "lower"},
	{Name: "model.stage.group_ms", Unit: "ms", Better: "lower"},
	{Name: "model.stage.feature_ms", Unit: "ms", Better: "lower"},
	{Name: "model.stage.interp_ms", Unit: "ms", Better: "lower"},
	{Name: "model.stage.structurize_ms", Unit: "ms", Better: "lower"},
	{Name: "sample.fps_ms", Unit: "ms", Better: "lower"},
	{Name: "sample.bucketfps_ms", Unit: "ms", Better: "lower"},
	{Name: "neighbor.bruteknn_ms", Unit: "ms", Better: "lower"},
	{Name: "core.window_ms", Unit: "ms", Better: "lower"},
	{Name: "core.structurize_ms", Unit: "ms", Better: "lower"},
	{Name: "morton.sort_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul.naive_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul.blocked_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul.int8_ms", Unit: "ms", Better: "lower"},
	{Name: "tensor.matmul_flop", Unit: "count", Better: "lower"},
	{Name: "tensor.matmul_bytes", Unit: "count", Better: "lower"},
	{Name: "tensor.matmulat_ms", Unit: "ms", Better: "lower"},
	{Name: "train.forward_ms", Unit: "ms", Better: "lower"},
	{Name: "train.backward_ms", Unit: "ms", Better: "lower"},
	{Name: "train.optim_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.frame_ms", Unit: "ms", Better: "lower"},
	{Name: "pipeline.stage_gap_frac", Unit: "fraction", Better: "lower"},
	{Name: "edgesim.price_us", Unit: "us", Better: "lower"},
	{Name: "serve.engine.wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.engine.wait_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.engine.service_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.engine.mean_batch", Unit: "count", Better: "lower"},
	{Name: "serve.engine.step_downs", Unit: "count", Better: "lower"},
	{Name: "serve.engine.step_ups", Unit: "count", Better: "lower"},
	{Name: "serve.engine.tier0_frac", Unit: "fraction", Better: "higher"},
	{Name: "serve.engine.tier1_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.engine.tier2_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.engine.tier3_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.engine.tier4_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.engine.tier5_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.engine.deadline_drops", Unit: "count", Better: "lower"},
	{Name: "serve.engine.overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.router.overhead_us", Unit: "us", Better: "lower"},
	{Name: "serve.ring.lookup_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.qos.admit_ns", Unit: "ns", Better: "lower"},
	{Name: "serve.router.shed_overload_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.router.shed_queuefull_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.router.shed_throttled_frac", Unit: "fraction", Better: "lower"},
	{Name: "serve.router.spills", Unit: "count", Better: "lower"},
	{Name: "serve.router.shed_level_max", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.gen_late_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_frac", Unit: "fraction", Better: "lower"},
	{Name: "bench.samples", Unit: "count", Better: "higher"},
}

// workloadSpec is one row of BENCHMARK.json's workloads list plus the
// function that runs it.
type workloadSpec struct {
	Name string
	Why  string
	new  func(sc scale, seed int64) workload
}

var workloads = []workloadSpec{
	{"pp_sn_stream", "W1 PointNet++ S+N on one engine, closed loop: the paper's design point, feature compute owns the frame so tensor/nn changes show here",
		func(sc scale, seed int64) workload { return newStream(sc, seed, false) }},
	{"pp_base_stream", "same net under Baseline (exact FPS, exact kNN): cost inverted, so sample/neighbor changes show here and kernel changes barely do",
		func(sc scale, seed int64) workload { return newStream(sc, seed, true) }},
	{"dgcnn_train", "W3 DGCNN S+N through train.Run: train-mode forward, backward kernels, Adam and the reuse cache, which inference never runs",
		func(sc scale, seed int64) workload { return newTraining(sc, seed) }},
	{"fleet_burst", "W1 S+N on 1024-point clouds behind the router, open-loop Poisson cycles of 0.53x, 1.9x, 0.53x of capacity: the only workload the serve layer decides",
		func(sc scale, seed int64) workload { return newFleet(sc, seed) }},
}

// scale sizes the nets, clouds and load. full is what BENCHMARK.json
// measures; smoke is the seconds-long pass the tests run.
type scale struct {
	smoke     bool
	points    int // W1 cloud size on the stream workloads
	clsPoints int // W3 cloud size
	width     int
	depth     int // PointNet++ modules; also DGCNN modules
	pool      int // distinct clouds per workload
	warm      int // warm-up frames per engine
	items     int // training set size
	// fleet_burst serves W1 on smaller clouds than the streams do. What it
	// measures is the serve layer's queue, ladder and shed controller, and
	// those count frames, not seconds: an eighth of the points is eight times
	// the frames, bursts and ladder steps in a run of the same length, and
	// with one burst of 260 frames per run the tail moved by a quarter between
	// runs of the same code (README "Sizing").
	fleetPoints int
	// fleet_burst arrival rates (frames/s) in the calm and burst phases, and
	// the latency limit. Constants, never calibrated at run time: see README
	// "Sizing" for the capacity measurement they come from.
	calmFPS, burstFPS float64
	deadline          time.Duration
	// probe is the time one layer probe spends calling its layer.
	probe time.Duration
}

var (
	fullScale = scale{points: 8192, clsPoints: 1024, width: 16, depth: 4, pool: 16, warm: 16, items: 32,
		fleetPoints: 1024, calmFPS: 165, burstFPS: 590, deadline: 50 * time.Millisecond, probe: 250 * time.Millisecond}
	smokeScale = scale{smoke: true, points: 256, clsPoints: 128, width: 8, depth: 2, pool: 4, warm: 4, items: 8,
		fleetPoints: 256, calmFPS: 300, burstFPS: 3000, deadline: 50 * time.Millisecond, probe: 5 * time.Millisecond}
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// checkNames validates every metric and workload name once at start-up, so a
// typo in the tables fails before anything is measured.
func checkNames() error {
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.Name)
	}
	for _, m := range perLayer {
		names = append(names, m.Name)
	}
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	seen := map[string]bool{}
	for _, name := range names {
		if !nameRE.MatchString(name) || len(name) > 64 {
			return fmt.Errorf("bench: name %q does not match %s in at most 64 characters", name, nameRE)
		}
		if seen[name] {
			return fmt.Errorf("bench: name %q is used twice", name)
		}
		seen[name] = true
	}
	return nil
}

func workloadByName(name string) (workloadSpec, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workloadSpec{}, fmt.Errorf("bench: unknown workload %q", name)
}
