package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/morton"
	"repro/internal/neighbor"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// Layer probes: direct calls into one layer at a time, on the workload's own
// inputs. Each reports the median of at least probeCalls calls spread over
// the scale's probe budget, so that a probe costs the traced run a fixed
// share of its time whatever the layer's speed.
const probeCalls = 3

// prober stores probe results under their per-layer metric names.
type prober struct {
	vals   map[string]float64
	budget time.Duration
}

// ms times f and adds the median call's milliseconds to the named metric.
func (p prober) ms(name string, f func() error) error {
	d, err := timeCalls(probeCalls, p.budget, f)
	if err != nil {
		return fmt.Errorf("probe %s: %w", name, err)
	}
	p.vals[name] += ms(d)
	return nil
}

// geometry times the sampling, neighbor-search and structurization
// layers on one cloud, at the first module's sizes: n points down to n/4,
// k neighbors, Morton window w.
func (p prober) geometry(cloud *geom.Cloud, k, w int) error {
	n := cloud.Len()
	q := n / 4
	sopts := core.StructurizeOptions{TotalBits: 32}
	st, err := core.Structurize(cloud, sopts)
	if err != nil {
		return err
	}
	sorted := st.Cloud.Points
	positions := core.SamplePositions(n, q)
	queries := make([]geom.Point3, q)
	for i, p := range positions {
		queries[i] = sorted[p]
	}
	codes := st.Encoder.EncodeCloud(cloud, nil)
	bucket := &sample.BucketFPS{Frac: 1}
	var picks []int

	return errors.Join(
		p.ms("sample.fps_ms", func() error {
			_, err := sample.FPSIndexes(cloud.Points, q, 0)
			return err
		}),
		p.ms("sample.bucketfps_ms", func() error {
			var err error
			picks, err = bucket.SampleInto(sorted, q, picks)
			return err
		}),
		p.ms("neighbor.bruteknn_ms", func() error {
			_, err := neighbor.BruteKNN{}.Search(sorted, queries, k)
			return err
		}),
		p.ms("core.window_ms", func() error {
			_, err := core.WindowSearcher{W: w}.SearchPositions(sorted, positions, k)
			return err
		}),
		p.ms("core.structurize_ms", func() error {
			_, err := core.Structurize(cloud, sopts)
			return err
		}),
		p.ms("morton.sort_ms", func() error {
			morton.RadixOrder(codes)
			return nil
		}),
	)
}

// matmul times the three largest feature-compute shapes the workload's
// own trace recorded, on each backend, and reports their summed time, their
// operation count and the bytes their operands hold (computed from the
// shapes, not measured).
func (p prober) matmul(records []model.StageRecord) error {
	var shapes []model.StageRecord
	for _, r := range records {
		if r.Stage == model.StageFeature && r.Q > 0 && r.CIn > 0 && r.COut > 0 {
			shapes = append(shapes, r)
		}
	}
	if len(shapes) == 0 {
		return fmt.Errorf("matmul probes: the trace holds no feature records")
	}
	sort.SliceStable(shapes, func(a, b int) bool {
		return shapes[a].Q*shapes[a].CIn*shapes[a].COut > shapes[b].Q*shapes[b].CIn*shapes[b].COut
	})
	if len(shapes) > 3 {
		shapes = shapes[:3]
	}
	rng := rand.New(rand.NewSource(1))
	fill := func(rows, cols int) *tensor.Matrix {
		m := tensor.New(rows, cols)
		for i := range m.Data {
			m.Data[i] = rng.Float32()*2 - 1
		}
		return m
	}
	for _, s := range shapes {
		a, b, out := fill(s.Q, s.CIn), fill(s.CIn, s.COut), tensor.New(s.Q, s.COut)
		p.vals["tensor.matmul_flop"] += 2 * float64(s.Q) * float64(s.CIn) * float64(s.COut)
		p.vals["tensor.matmul_bytes"] += 4 * float64(s.Q*s.CIn+s.CIn*s.COut+s.Q*s.COut)
		for _, name := range []string{tensor.BackendNaive, tensor.BackendBlocked, tensor.BackendInt8} {
			be, err := tensor.NewBackend(name)
			if err != nil {
				return err
			}
			if err := p.ms("tensor.matmul."+name+"_ms", func() error { return be.MatMulInto(out, a, b) }); err != nil {
				return err
			}
		}
	}
	// The weight-gradient kernel of the backward pass, at the largest shape:
	// activationsᵀ · output gradient.
	s := shapes[0]
	a, g, out := fill(s.Q, s.CIn), fill(s.Q, s.COut), tensor.New(s.CIn, s.COut)
	return p.ms("tensor.matmulat_ms", func() error { return tensor.MatMulATInto(out, a, g) })
}

// stubNet is the trivial pipeline.Net behind the serve-overhead probes: it
// returns a fixed output, so what a Submit costs is the serving layer alone.
type stubNet struct{ out *model.Output }

func (s stubNet) Forward(*geom.Cloud, *model.Trace, bool) (*model.Output, error) { return s.out, nil }
func (s stubNet) Backward(*tensor.Matrix) error                                  { return nil }
func (s stubNet) Params() []*nn.Param                                            { return nil }

func stubEngine() (*serve.Engine, error) {
	net := &stubNet{out: &model.Output{Logits: tensor.New(1, 1)}}
	return serve.New([]pipeline.Net{net}, nil, edgesim.Config{}, serve.Config{MaxBatch: 8, BatchWindow: 500 * time.Microsecond})
}

// submits stores the median microseconds of n calls of submit under name.
func (p prober) submits(name string, n int, submit func(i int) error) error {
	durs := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := submit(i); err != nil {
			return fmt.Errorf("probe %s: %w", name, err)
		}
		durs = append(durs, float64(time.Since(t0))/1e3)
	}
	p.vals[name] = median(durs)
	return nil
}

// serve times what the serving layer adds around a frame: a Submit to an
// engine and to a two-engine router whose nets do nothing, one ring lookup
// and one QoS admission.
func (p prober) serve(cloud *geom.Cloud) error {
	const submits, calls = 400, 20000
	req := serve.Request{Cloud: cloud}
	names := tenantNames()

	eng, err := stubEngine()
	if err != nil {
		return err
	}
	err = p.submits("serve.engine.overhead_us", submits, func(int) error {
		_, err := eng.Submit(context.Background(), req)
		return err
	})
	if err = errors.Join(err, eng.Close()); err != nil {
		return err
	}

	engines := make([]*serve.Engine, 2)
	for i := range engines {
		if engines[i], err = stubEngine(); err != nil {
			return err
		}
	}
	router, err := serve.NewRouter(engines, serve.RouterConfig{QoS: serve.NewQoS(serve.QoSConfig{Classify: classify})})
	if err != nil {
		return err
	}
	err = p.submits("serve.router.overhead_us", submits, func(i int) error {
		_, err := router.Submit(context.Background(), serve.FleetRequest{Request: req, Tenant: names[i%len(names)]})
		return err
	})
	if err = errors.Join(err, router.Close()); err != nil {
		return err
	}

	ring, err := serve.NewRing(2, serve.DefaultVNodes)
	if err != nil {
		return err
	}
	owners := 0
	t0 := time.Now()
	for i := 0; i < calls; i++ {
		owners += ring.Lookup(names[i%len(names)])
	}
	p.vals["serve.ring.lookup_ns"] = float64(time.Since(t0)) / calls
	runtime.KeepAlive(owners)

	qos := serve.NewQoS(serve.QoSConfig{Classify: classify})
	t0 = time.Now()
	for i := 0; i < calls; i++ {
		if _, err := qos.Admit(names[i%len(names)]); err != nil {
			return fmt.Errorf("probe serve.qos.admit_ns: %w", err)
		}
	}
	p.vals["serve.qos.admit_ns"] = float64(time.Since(t0)) / calls
	return nil
}
