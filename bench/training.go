package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/dataset"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/train"
)

const trainBatch = 8 // samples per optimizer step

// training is dgcnn_train: someone retraining W3 with the approximations in
// the loop. train.Run trains a net from the Seed-1 weights in every run, so
// that the loss curve the run is checked by depends on the workload seed and
// nothing else; the driver sees sample boundaries through an Augment hook
// that changes nothing.
type training struct {
	sc   scale
	seed int64

	w     pipeline.Workload
	opts  pipeline.Options
	ds    *dataset.Classification
	idx   []int
	net   pipeline.Net  // the net the last train.Run trained
	hand  pipeline.Net  // private net the layers pass steps by hand
	opt   *nn.Adam      // hand's optimizer
	trace model.Trace   // hand's last forward
	epoch time.Duration // what the warm-up epoch took; sizes a run
}

func newTraining(sc scale, seed int64) *training { return &training{sc: sc, seed: seed} }

func (t *training) setup(tr *tracer) error {
	t0 := time.Now()
	var err error
	if t.w, err = pipeline.WorkloadByID("W3"); err != nil {
		return err
	}
	t.opts = pipeline.Options{Seed: 1, BaseWidth: t.sc.width, Modules: t.sc.depth}
	t.w.Points = t.sc.clsPoints
	// The data set makes each cloud from its seed when asked for it, as the
	// training loop's users pay for it.
	t.ds = dataset.NewClassification(t.sc.items, t.seed*1000)
	t.ds.Points = t.sc.clsPoints
	t.idx = make([]int, t.sc.items)
	for i := range t.idx {
		t.idx[i] = i
	}
	generated := time.Now()
	if t.hand, err = pipeline.Build(t.w, pipeline.SN, t.opts); err != nil {
		return err
	}
	t.opt = nn.NewAdam(1e-3)
	e0 := time.Now()
	if _, err := t.train(1, nil); err != nil {
		return fmt.Errorf("warm-up epoch: %w", err)
	}
	t.epoch = time.Since(e0)
	root := tr.add("setup", -1, -1, t0, time.Now())
	tr.add("generate", root, -1, t0, generated)
	return nil
}

// train runs train.Run for the given epochs and returns the instant each
// sample was handed to the training step.
func (t *training) train(epochs int, stamps *[]time.Time) (train.Result, error) {
	var err error
	// The trained net stays reachable, as its owner would keep it: heap_mb is
	// read after the run.
	if t.net, err = pipeline.Build(t.w, pipeline.SN, t.opts); err != nil {
		return train.Result{}, err
	}
	cfg := train.Config{Epochs: epochs, BatchSize: trainBatch, Seed: t.seed}
	if stamps != nil {
		cfg.Augment = func(c *geom.Cloud, _ *rand.Rand) *geom.Cloud {
			*stamps = append(*stamps, time.Now())
			return c
		}
	}
	// train.Run ends with an evaluation pass; one item keeps it short.
	return train.Run(t.net, t.ds, t.idx, t.idx[:1], cfg)
}

func (t *training) run(d time.Duration, layers bool, tr *tracer) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}, cycle: len(t.idx)}
	// train.Run cannot be stopped on the clock, so the run is sized in whole
	// epochs from the warm-up epoch's time. Two at least: the loss check
	// compares the last epoch with the first. A measured run needs four
	// complete cycles and one more, since the last epoch's last sample has
	// no closing stamp.
	least := 2
	if !layers {
		least = 5
	}
	if t.sc.smoke {
		least = 8 // a width-8 net on 8 items learns too noisily to show it sooner
	}
	epochs := max(least, int(float64(d)/float64(t.epoch)+0.5))
	stamps := make([]time.Time, 0, epochs*len(t.idx))
	start := time.Now()
	res, err := t.train(epochs, &stamps)
	end := time.Now()
	if err != nil {
		return nil, err
	}
	// An operation is one training sample: from its hand-over to the next
	// one's. The last sample has no closing stamp and is left out.
	root := tr.add("train.run", -1, -1, start, end)
	for i := 1; i < len(stamps); i++ {
		o.latMS = append(o.latMS, ms(stamps[i].Sub(stamps[i-1])))
		tr.add("train.sample", root, i-1, stamps[i-1], stamps[i])
	}
	o.offered = len(stamps) - 1
	o.completed, o.tier0, o.good = o.offered, o.offered, o.offered
	o.wall = stamps[len(stamps)-1].Sub(stamps[0])
	for e, l := range res.TrainLoss {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			o.problem("epoch %d loss is %v", e, l)
		}
	}
	if first, last := res.TrainLoss[0], res.TrainLoss[len(res.TrainLoss)-1]; !(last < first) {
		o.problem("loss did not fall: epoch 0 %.5f, epoch %d %.5f", first, len(res.TrainLoss)-1, last)
	}
	if len(o.problems) > 0 {
		o.failed, o.good = o.offered, 0
	}
	if layers {
		if err := t.handEpoch(len(stamps), tr, o.layer); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// handEpoch takes one epoch's steps by direct calls — train-mode Forward with
// a caller-owned trace, CrossEntropy and Backward, Adam.Step every trainBatch
// samples — so that each can be timed and its spans recorded.
func (t *training) handEpoch(op0 int, tr *tracer, vals map[string]float64) error {
	var fs frameStats
	var fwd, bwd, optim []float64
	params := t.hand.Params()
	nn.ZeroGrads(params)
	for i, idx := range t.idx {
		s, err := t.ds.At(idx)
		if err != nil {
			return err
		}
		t.trace.Reset()
		t0 := time.Now()
		out, err := t.hand.Forward(s.Cloud, &t.trace, true)
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("hand step %d: forward: %w", i, err)
		}
		_, grad, err := nn.CrossEntropy(out.Logits, []int32{s.Label})
		if err != nil {
			return fmt.Errorf("hand step %d: loss: %w", i, err)
		}
		if err := t.hand.Backward(grad); err != nil {
			return fmt.Errorf("hand step %d: backward: %w", i, err)
		}
		t2 := time.Now()
		fs.add(t1.Sub(t0), &t.trace)
		tr.addFrame("train.forward", -1, op0+i, t0, t1, &t.trace)
		tr.add("train.backward", -1, op0+i, t1, t2)
		fwd, bwd = append(fwd, ms(t1.Sub(t0))), append(bwd, ms(t2.Sub(t1)))
		if (i+1)%trainBatch == 0 {
			t.opt.Step(params)
			nn.ZeroGrads(params)
			t3 := time.Now()
			tr.add("train.optim", -1, op0+i, t2, t3)
			optim = append(optim, ms(t3.Sub(t2)))
		}
	}
	fs.storeStages(vals)
	vals["train.forward_ms"] = median(fwd)
	vals["train.backward_ms"] = median(bwd)
	vals["train.optim_ms"] = median(optim)
	return nil
}

func (t *training) probes(vals map[string]float64) error {
	s, err := t.ds.At(0)
	if err != nil {
		return err
	}
	p := prober{vals, t.sc.probe}
	return errors.Join(p.geometry(s.Cloud, t.w.K, 2*t.w.K), p.matmul(t.trace.Records))
}

func (t *training) close() error { return nil }
