package main

import (
	"fmt"
	"runtime"
	"time"
)

// workload is one scenario of the benchmark. Implementations measure the
// layers from outside: they call public functions of repro/internal/... and
// read what those calls return.
type workload interface {
	// setup builds nets, engines and the input pool from the seed, computes
	// the reference outputs and warms caches. With a tracer it records a
	// "setup" span and a "generate" child.
	setup(tr *tracer) error
	// run drives the workload for about d. With layers false only the
	// program's own path runs: that is the end-to-end measurement. With
	// layers true the workload also calls the layers directly (the
	// caller-owned model.Trace pass, the training step by hand) and records
	// spans into tr; a nil tr records none, so the same pass can be timed
	// with tracing off.
	run(d time.Duration, layers bool, tr *tracer) (*outcome, error)
	// probes times single layers by direct calls on this workload's inputs
	// and stores the values under their per-layer metric names.
	probes(vals map[string]float64) error
	// close stops everything setup started and waits for it.
	close() error
}

// outcome is what one run of a workload produced.
type outcome struct {
	wall      time.Duration
	offered   int       // operations attempted
	good      int       // correct output, inside the latency limit
	failed    int       // wrong output or an error the workload does not expect
	completed int       // operations that returned an output
	tier0     int       // completed at full fidelity
	latMS     []float64 // per completed operation, in the order they ran
	// cycle is the number of consecutive operations that cover the same
	// inputs once in a closed loop (see cycleStats); 0 in an open loop.
	cycle    int
	problems []string // violated checks, printed and fatal to "correct"
	// layer holds per-layer values read during the run, keyed by metric name.
	layer map[string]float64
	// reconcile asks runTraced to hold the layers pass to the stage-gap and
	// service-time limits; only a closed loop on an otherwise idle machine
	// can be held to them.
	reconcile bool
}

func (o *outcome) problem(format string, args ...any) {
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// frac is num/den, and 0 when nothing was counted: a pass in which nothing
// completed reports zeros and fails its checks, it does not print NaN.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// memWindow brackets a measured window with runtime.MemStats.
type memWindow struct{ before, after runtime.MemStats }

func (m *memWindow) begin() {
	runtime.GC()
	runtime.ReadMemStats(&m.before)
}

func (m *memWindow) end() { runtime.ReadMemStats(&m.after) }

func (m *memWindow) mallocs() float64 { return float64(m.after.Mallocs - m.before.Mallocs) }
func (m *memWindow) bytes() float64   { return float64(m.after.TotalAlloc - m.before.TotalAlloc) }
func (m *memWindow) gcCycles() float64 {
	return float64(m.after.NumGC - m.before.NumGC)
}
func (m *memWindow) gcPauseMS() float64 {
	return float64(m.after.PauseTotalNs-m.before.PauseTotalNs) / 1e6
}

// heapMB forces a collection and reads what stays in use; the caller keeps
// the workload alive across the call.
func heapMB() float64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	return float64(m.HeapInuse) / (1 << 20)
}

// setupRepeats is how often, at the least, the end-to-end run sets the
// workload up; the median is reported, since a single set-up of a second or
// two is at the mercy of one scheduling hiccup. A set-up of a fraction of a
// second (fleet_burst's) is repeated until setupShare of the run length is
// spent (3 s of 20), because the first one in a process pays for a cold heap
// and the median of three is then either kind. The last instance is the one
// measured.
const (
	setupRepeats = 3
	setupShare   = 0.15
)

// result is the outcome of one workload run in one mode, ready to print.
type result struct {
	workload  string
	values    map[string]float64 // metric name → value
	samples   map[string]int     // metric name → sample count behind it
	attempted int
	failed    int
	problems  []string
	notes     []string // printed above the metrics; not part of any result
	traceFile string
}

func (r *result) correct() bool { return len(r.problems) == 0 && r.failed == 0 }

// runEndToEnd measures one workload with tracing off and returns every
// end-to-end metric.
func runEndToEnd(spec workloadSpec, sc scale, seed int64, d time.Duration) (*result, error) {
	var w workload
	var setups []float64
	budget := time.Duration(setupShare * float64(d))
	for begin := time.Now(); len(setups) < setupRepeats || time.Since(begin) < budget; {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		w = spec.new(sc, seed)
		t0 := time.Now()
		if err := w.setup(nil); err != nil {
			return nil, fmt.Errorf("%s: setup: %w", spec.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	var mem memWindow
	mem.begin()
	o, err := w.run(d, false, nil)
	mem.end()
	if err != nil {
		_ = w.close() // the run's error is the one to report
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	heap := heapMB()
	if err := w.close(); err != nil {
		return nil, err
	}

	r := &result{workload: spec.Name, values: map[string]float64{}, samples: map[string]int{},
		attempted: o.offered, failed: o.failed, problems: o.problems}
	var fps, p50, p90 float64
	if o.cycle > 0 {
		fps, p50, p90, err = cycleStats(o.latMS, o.cycle)
		// The plain numbers over every operation, for the reader who wants to
		// see how far the machine's loud spells moved them.
		r.notes = append(r.notes, fmt.Sprintf("plain over all %d operations: %.4f ops/s, p50 %.4f ms, p90 %.4f ms",
			len(o.latMS), float64(o.good)/o.wall.Seconds(), quantile(o.latMS, 0.5), quantile(o.latMS, 0.9)))
	} else {
		// An open loop has no cycles to compare: its schedule is the input.
		fps = float64(o.good) / o.wall.Seconds()
		if p50, err = percentile(o.latMS, 0.5); err == nil {
			p90, err = percentile(o.latMS, 0.9)
		}
	}
	if err != nil {
		return nil, fmt.Errorf("%s: latency: %w", spec.Name, err)
	}
	r.values["setup_s"] = median(setups)
	r.values["throughput_fps"] = fps
	r.values["latency_p50_ms"] = p50
	r.values["latency_p90_ms"] = p90
	r.values["goodput_frac"] = frac(float64(o.good), float64(o.offered))
	r.values["full_fidelity_frac"] = frac(float64(o.tier0), float64(o.completed))
	r.values["heap_mb"] = heap
	r.values["allocs_per_op"] = frac(mem.mallocs(), float64(o.completed))
	for _, m := range endToEnd {
		r.samples[m.Name] = o.offered
	}
	r.samples["setup_s"] = len(setups)
	r.samples["latency_p50_ms"] = len(o.latMS)
	r.samples["latency_p90_ms"] = len(o.latMS)
	r.samples["full_fidelity_frac"] = o.completed
	r.samples["allocs_per_op"] = o.completed
	r.samples["heap_mb"] = 1
	return r, nil
}

// Reconciliation limits of the traced run on the stream workloads: the stage
// spans must cover the frame, and the engine's service time must agree with
// the direct frame time. Beyond them the layers do not add up and the run
// says so instead of printing numbers that look consistent.
const (
	maxStageGap       = 0.03
	maxServiceVsFrame = 0.10
)

// runTraced runs the short passes of one workload — once with spans off, once
// with spans on — then the layer probes, and returns every per-layer metric.
// The trace is written to outDir when the run ends.
func runTraced(spec workloadSpec, sc scale, seed int64, d time.Duration, outDir string) (*result, error) {
	tr := newTracer()
	w := spec.new(sc, seed)
	if err := w.setup(tr); err != nil {
		return nil, fmt.Errorf("%s: setup: %w", spec.Name, err)
	}
	fail := func(err error) (*result, error) {
		_ = w.close() // the pass's error is the one to report
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	// Two passes of half the run length each: with one set-up instead of
	// three, and the probes, a traced run costs about what a measured one does.
	plain, err := w.run(d/2, true, nil)
	if err != nil {
		return fail(err)
	}
	var mem memWindow
	mem.begin()
	traced, err := w.run(d/2, true, tr)
	mem.end()
	if err != nil {
		return fail(err)
	}
	vals := traced.layer
	if err := w.probes(vals); err != nil {
		return fail(err)
	}
	if err := w.close(); err != nil {
		return nil, err
	}

	rate := func(o *outcome) float64 { return float64(o.good) / o.wall.Seconds() }
	vals["bench.trace_overhead_frac"] = frac(rate(plain)-rate(traced), rate(plain))
	vals["bench.samples"] = float64(traced.offered)
	vals["runtime.bytes_per_op"] = frac(mem.bytes(), float64(traced.offered))
	vals["runtime.gc_cycles"] = mem.gcCycles()
	vals["runtime.gc_pause_ms"] = mem.gcPauseMS()

	r := &result{workload: spec.Name, values: map[string]float64{}, samples: map[string]int{},
		attempted: plain.offered + traced.offered, failed: plain.failed + traced.failed,
		problems: append(plain.problems, traced.problems...)}
	for _, m := range perLayer {
		r.values[m.Name] = vals[m.Name]
		r.samples[m.Name] = traced.offered
	}
	if traced.reconcile {
		if gap := vals["pipeline.stage_gap_frac"]; gap > maxStageGap {
			r.problems = append(r.problems, fmt.Sprintf("pipeline.stage_gap_frac %.4f > %.2f: stage spans do not cover the frame", gap, maxStageGap))
		}
		svc, frame := vals["serve.engine.service_p50_ms"], vals["pipeline.frame_ms"]
		if diff := (svc - frame) / frame; diff > maxServiceVsFrame || diff < -maxServiceVsFrame {
			r.problems = append(r.problems, fmt.Sprintf("serve.engine.service_p50_ms %.3f and pipeline.frame_ms %.3f disagree by %.1f%%", svc, frame, diff*100))
		}
	}
	if r.traceFile, err = tr.write(outDir, spec.Name); err != nil {
		return nil, err
	}
	return r, nil
}
