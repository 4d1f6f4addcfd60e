package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/serve"
)

// w1 is the Table 1 row both stream workloads and fleet_burst serve, on
// clouds of the given size, and its net's options at the scale's sizes (the
// full scale spells out the defaults). Weights always come from Seed 1: the
// workload seed varies inputs, never the program.
func w1(sc scale, points int) (pipeline.Workload, pipeline.Options, error) {
	w, err := pipeline.WorkloadByID("W1")
	w.Points = points
	return w, pipeline.Options{Seed: 1, BaseWidth: sc.width, Depth: sc.depth}, err
}

// framePool generates the workload's distinct input clouds from the seed.
func framePool(w pipeline.Workload, n int, seed int64) ([]*geom.Cloud, error) {
	pool := make([]*geom.Cloud, n)
	for i := range pool {
		var err error
		if pool[i], err = pipeline.Frame(w, seed*1000+int64(i)); err != nil {
			return nil, err
		}
	}
	return pool, nil
}

// directNet is a private replica the driver calls pipeline.RunInto on
// itself: at set-up for the reference outputs, in the layers pass for the
// caller-owned model.Trace.
type directNet struct {
	net   pipeline.Net
	dev   *edgesim.Device
	sim   edgesim.Config
	trace model.Trace
}

func (d *directNet) references(pool []*geom.Cloud) ([]reference, error) {
	refs := make([]reference, len(pool))
	for i, c := range pool {
		_, out, err := pipeline.RunInto(d.net, c, &d.trace, d.dev, d.sim)
		if err != nil {
			return nil, fmt.Errorf("reference output %d: %w", i, err)
		}
		refs[i] = newReference(out)
	}
	return refs, nil
}

// numStages is the count of model.StageKind values: StageStructurize is the
// last one.
const numStages = int(model.StageStructurize) + 1

// frameStats accumulates what the direct frames of a layers pass showed.
type frameStats struct {
	frameMS, gapFrac, priceUS []float64
	stageMS                   [numStages][]float64 // indexed by model.StageKind
}

// frame runs one traced frame on the private replica, records its spans and
// adds its numbers to fs.
func (d *directNet) frame(c *geom.Cloud, op int, tr *tracer, fs *frameStats) error {
	t0 := time.Now()
	_, _, err := pipeline.RunInto(d.net, c, &d.trace, d.dev, d.sim)
	t1 := time.Now()
	if err != nil {
		return fmt.Errorf("direct frame: %w", err)
	}
	tr.addFrame("pipeline.frame", -1, op, t0, t1, &d.trace)
	fs.add(t1.Sub(t0), &d.trace)
	// RunInto priced the trace inside the frame; pricing it again alone
	// gives the cost model's own share.
	p0 := time.Now()
	d.dev.PriceTrace(&d.trace, d.sim)
	fs.priceUS = append(fs.priceUS, float64(time.Since(p0))/1e3)
	return nil
}

// add takes one forward pass's duration and trace into the statistics.
func (fs *frameStats) add(frame time.Duration, tr *model.Trace) {
	var spans time.Duration
	for _, sp := range tr.Spans {
		spans += sp.Dur
	}
	var stage [numStages]time.Duration
	for _, rec := range tr.Records {
		if int(rec.Stage) < len(stage) {
			stage[rec.Stage] += rec.Dur
		}
	}
	fs.frameMS = append(fs.frameMS, ms(frame))
	fs.gapFrac = append(fs.gapFrac, 1-float64(spans)/float64(frame))
	for k, dur := range stage {
		fs.stageMS[k] = append(fs.stageMS[k], ms(dur))
	}
}

func (fs *frameStats) storeStages(vals map[string]float64) {
	for k := range fs.stageMS {
		vals["model.stage."+model.StageKind(k).String()+"_ms"] = median(fs.stageMS[k])
	}
}

func (fs *frameStats) store(vals map[string]float64) {
	fs.storeStages(vals)
	vals["pipeline.frame_ms"] = median(fs.frameMS)
	vals["pipeline.stage_gap_frac"] = median(fs.gapFrac)
	vals["edgesim.price_us"] = median(fs.priceUS)
}

// engineStats accumulates what the Results and Stats of a serving run showed.
type engineStats struct {
	waitMS, serviceMS []float64
}

// observe records one served Result, and its engine-side spans under parent:
// the engine reports how long the frame waited and how long it ran, so the
// two children are laid out from the submit instant.
func (es *engineStats) observe(res serve.Result, parent, op int, submit time.Time, tr *tracer) {
	es.waitMS = append(es.waitMS, ms(res.Wait))
	es.serviceMS = append(es.serviceMS, ms(res.Total-res.Wait))
	picked := submit.Add(res.Wait)
	tr.add("engine.wait", parent, op, submit, picked)
	tr.add("engine.service", parent, op, picked, submit.Add(res.Total))
}

func (es *engineStats) store(vals map[string]float64, stats []serve.Stats) {
	vals["serve.engine.wait_p50_ms"] = median(es.waitMS)
	if p, err := percentile(es.waitMS, 0.9); err == nil {
		vals["serve.engine.wait_p90_ms"] = p
	}
	vals["serve.engine.service_p50_ms"] = median(es.serviceMS)
	var frames, batches, completed float64
	var tiers [ladderTiers + 1]float64 // tier 0 and the ladder's rungs
	for _, s := range stats {
		frames += float64(s.Frames)
		batches += float64(s.Batches)
		completed += float64(s.Completed)
		vals["serve.engine.step_downs"] += float64(s.StepDowns)
		vals["serve.engine.step_ups"] += float64(s.StepUps)
		vals["serve.engine.deadline_drops"] += float64(s.TimedOut)
		for t, n := range s.Degraded {
			if t < len(tiers) {
				tiers[t] += float64(n)
			}
		}
	}
	if batches > 0 {
		vals["serve.engine.mean_batch"] = frames / batches
	}
	for t, n := range tiers {
		if completed > 0 {
			vals[fmt.Sprintf("serve.engine.tier%d_frac", t)] = n / completed
		}
	}
}

// statsDelta subtracts the counters a serving run reads from an engine's
// Stats taken before it, so warm-up and earlier passes do not count.
func statsDelta(after, before serve.Stats) serve.Stats {
	d := after
	d.Frames -= before.Frames
	d.Batches -= before.Batches
	d.Completed -= before.Completed
	d.StepDowns -= before.StepDowns
	d.StepUps -= before.StepUps
	d.TimedOut -= before.TimedOut
	d.Degraded = append([]uint64(nil), after.Degraded...)
	for t := range d.Degraded {
		if t < len(before.Degraded) {
			d.Degraded[t] -= before.Degraded[t]
		}
	}
	return d
}

// stream is pp_sn_stream and pp_base_stream: one sensor, one engine with one
// worker built the way edgepc-serve builds it, one client that sends the next
// frame when the previous one came back.
type stream struct {
	sc   scale
	seed int64
	kind pipeline.ConfigKind

	pool   []*geom.Cloud
	refs   []reference
	direct directNet
	engine *serve.Engine
}

func newStream(sc scale, seed int64, baseline bool) *stream {
	s := &stream{sc: sc, seed: seed, kind: pipeline.SN}
	if baseline {
		s.kind = pipeline.Baseline
	}
	return s
}

func (s *stream) setup(tr *tracer) error {
	t0 := time.Now()
	w, opts, err := w1(s.sc, s.sc.points)
	if err != nil {
		return err
	}
	if s.pool, err = framePool(w, s.sc.pool, s.seed); err != nil {
		return err
	}
	generated := time.Now()
	dev, sim := edgesim.JetsonAGXXavier(), pipeline.SimConfig(w, s.kind, opts)
	net, err := pipeline.Build(w, s.kind, opts)
	if err != nil {
		return err
	}
	s.direct = directNet{net: net, dev: dev, sim: sim}
	if s.refs, err = s.direct.references(s.pool); err != nil {
		return err
	}
	nets, err := pipeline.Replicas(w, s.kind, opts, 1)
	if err != nil {
		return err
	}
	// edgepc-serve's defaults, spelled out so a change of the package's
	// zero-value defaults does not silently change the workload.
	if s.engine, err = serve.New(nets, dev, sim, serve.Config{MaxBatch: 8, BatchWindow: 500 * time.Microsecond}); err != nil {
		return err
	}
	for i := 0; i < s.sc.warm; i++ {
		if _, err := s.engine.Submit(context.Background(), serve.Request{Cloud: s.pool[i%len(s.pool)]}); err != nil {
			return fmt.Errorf("warm-up frame %d: %w", i, err)
		}
	}
	root := tr.add("setup", -1, -1, t0, time.Now())
	tr.add("generate", root, -1, t0, generated)
	return nil
}

func (s *stream) run(d time.Duration, layers bool, tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}, cycle: len(s.pool)}
	var es engineStats
	var fs frameStats
	before := s.engine.Stats()
	start := time.Now()
	// The run ends with the first pass over the pool that completes after d,
	// so that every cycle sees the same clouds, and a measured run not
	// before minCycles passes.
	done := func(i int) bool {
		return i%len(s.pool) == 0 && time.Since(start) >= d && (layers || i >= minCycles*len(s.pool))
	}
	for i := 0; !done(i); i++ {
		idx := i % len(s.pool)
		o.offered++
		t0 := time.Now()
		res, err := s.engine.Submit(context.Background(), serve.Request{Cloud: s.pool[idx]})
		t1 := time.Now()
		if err != nil {
			// Nothing sheds or expires here: one client, no deadline.
			o.failed++
			o.problem("frame %d: %v", i, err)
			continue
		}
		o.completed++
		o.latMS = append(o.latMS, ms(t1.Sub(t0)))
		if res.Tier == 0 {
			o.tier0++
		}
		if msg := s.refs[idx].check(res.Output, res.Tier); msg != "" {
			o.failed++
			o.problem("frame %d (cloud %d): %s", i, idx, msg)
		} else {
			o.good++
		}
		es.observe(res, tr.add("engine.submit", -1, i, t0, t1), i, t0, tr)
		if layers {
			// The direct frame alternates with the served one so that
			// machine noise falls on both sides of the service-time check.
			if err := s.direct.frame(s.pool[idx], i, tr, &fs); err != nil {
				return nil, err
			}
		}
	}
	o.wall = time.Since(start)
	es.store(o.layer, []serve.Stats{statsDelta(s.engine.Stats(), before)})
	if layers {
		fs.store(o.layer)
		o.reconcile = !s.sc.smoke
	}
	return o, nil
}

func (s *stream) probes(vals map[string]float64) error {
	w, _, err := w1(s.sc, s.sc.points)
	if err != nil {
		return err
	}
	p := prober{vals, s.sc.probe}
	return errors.Join(
		p.geometry(s.pool[0], w.K, 2*w.K),
		p.matmul(s.direct.trace.Records),
		p.serve(s.pool[0]),
	)
}

func (s *stream) close() error { return s.engine.Close() }
