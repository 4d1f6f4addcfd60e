package model

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/tensor"
)

// This file adapts the network modules (SAModule, FPModule, EdgeConvModule,
// plain MLP stacks, global pooling) to the Stage interface so the three
// architectures reduce to declarative stage lists over one Graph executor.
// Each stage's Forward is individually hotpath-annotated: the executor
// dispatches through the Stage interface, which the hotpathalloc analyzer
// deliberately does not traverse, so the contract is restated per
// implementation.

// saStage wraps a PointNet++ SetAbstraction module: it consumes the
// innermost level and pushes the sampled one.
type saStage struct {
	name string
	idx  int
	m    *SAModule
}

func (s *saStage) Name() string                      { return s.name }
func (s *saStage) layer() int                        { return s.idx }
func (s *saStage) Params() []*nn.Param               { return s.m.MLP.Params() }
func (s *saStage) SetWorkspace(ws *tensor.Workspace) { s.m.MLP.SetWorkspace(ws) }

func (s *saStage) SetTrainArena(a *tensor.Workspace) {
	s.m.MLP.SetTrainArena(a)
	s.m.cache = saCache{}
}

func (s *saStage) SetGradQueue(q *nn.GradQueue) { s.m.MLP.SetGradQueue(q) }

//edgepc:hotpath
func (s *saStage) Forward(x *Exec) error {
	pl, err := x.plan.saEntry(s.idx)
	if err != nil {
		return err
	}
	// The planner's records of this module go first: the trace keeps each
	// module's records in stage order whichever chain made them.
	x.trace.Add(pl.sample)
	x.trace.Add(pl.neighbor)
	parent := x.top()
	next := x.pushLevel()
	next.pts = x.plan.levels[s.idx+1].pts
	if err := s.m.forward(parent, next, pl, s.idx, x); err != nil {
		return err
	}
	x.chain = next.feats
	return nil
}

func (s *saStage) Backward(x *Exec) error {
	dParent, err := s.m.backward(x.arena, x.dlevel[s.idx+1], s.idx > 0)
	if err != nil {
		return err
	}
	x.dlevel[s.idx+1] = nil // consumed
	if dParent != nil {
		x.addLevelGrad(s.idx, dParent)
	}
	return nil
}

// fpStage wraps a PointNet++ FeaturePropagation module: it interpolates the
// chain activation (the coarse features) onto the matching finer level and
// fuses the skip features.
type fpStage struct {
	name  string
	idx   int // execution index; produces level depth−1−idx
	depth int
	m     *FPModule
}

func (s *fpStage) Name() string                      { return s.name }
func (s *fpStage) layer() int                        { return s.idx }
func (s *fpStage) Params() []*nn.Param               { return s.m.MLP.Params() }
func (s *fpStage) SetWorkspace(ws *tensor.Workspace) { s.m.MLP.SetWorkspace(ws) }

func (s *fpStage) SetTrainArena(a *tensor.Workspace) {
	s.m.MLP.SetTrainArena(a)
	s.m.cache = fpCache{}
}

func (s *fpStage) SetGradQueue(q *nn.GradQueue) { s.m.MLP.SetGradQueue(q) }

//edgepc:hotpath
func (s *fpStage) Forward(x *Exec) error {
	pl, err := x.plan.fpEntry(s.idx)
	if err != nil {
		return err
	}
	x.trace.Add(pl.rec)
	fine := x.levels[s.depth-1-s.idx]
	coarse := x.levels[s.depth-s.idx]
	prev := x.chain
	out, err := s.m.forward(fine, coarse, prev, &pl.interp, s.idx, x)
	if err != nil {
		return err
	}
	// After interpolation the coarse features (the previous FP output, or
	// the deepest SA level at idx 0) are dead, and the fine skip features
	// were consumed by the concat — recycle both. wsPut skips buffers the
	// workspace no longer lends, so aliases are safe.
	if x.ws != nil {
		if prev != out {
			wsPut(x.ws, prev)
		}
		if fine.feats != out {
			wsPut(x.ws, fine.feats)
			fine.feats = nil
		}
	}
	x.chain = out
	return nil
}

func (s *fpStage) Backward(x *Exec) error {
	// The fine level is the input's at the last FP, whose skip gradient
	// nobody reads.
	fine := s.depth - 1 - s.idx
	dSkip, dCoarse, err := s.m.backward(x.arena, x.grad, fine > 0)
	if err != nil {
		return err
	}
	x.setLevelGrad(fine, dSkip)
	if s.idx == 0 {
		// The first-executed FP consumed the deepest SA output directly; its
		// coarse gradient belongs to that level, not to an earlier FP.
		x.setLevelGrad(s.depth, dCoarse)
		x.grad = nil
	} else {
		x.grad = dCoarse
	}
	return nil
}

// ecStage wraps a DGCNN EdgeConv module: same point set in and out, output
// features parked as a tap for the later fusion stage.
type ecStage struct {
	name string
	idx  int
	m    *EdgeConvModule
}

func (s *ecStage) Name() string                      { return s.name }
func (s *ecStage) layer() int                        { return s.idx }
func (s *ecStage) Params() []*nn.Param               { return s.m.MLP.Params() }
func (s *ecStage) SetWorkspace(ws *tensor.Workspace) { s.m.MLP.SetWorkspace(ws) }

func (s *ecStage) SetTrainArena(a *tensor.Workspace) {
	s.m.MLP.SetTrainArena(a)
	s.m.cache = ecCache{}
}

func (s *ecStage) SetGradQueue(q *nn.GradQueue) { s.m.MLP.SetGradQueue(q) }

//edgepc:hotpath
func (s *ecStage) Forward(x *Exec) error {
	lv := x.top()
	next := x.pushLevel()
	if err := s.m.forward(lv, next, s.idx, x); err != nil {
		return err
	}
	if x.ws != nil && s.idx == 0 && next.feats != lv.feats {
		// The input features are dead once EC0 consumed them; the EC outputs
		// themselves stay alive for the skip concat.
		wsPut(x.ws, lv.feats)
	}
	//edgepc:lint-ignore hotpathalloc cap-guarded after the first frame; Exec persists the tap array
	x.taps = append(x.taps, next.feats)
	x.chain = next.feats
	return nil
}

func (s *ecStage) Backward(x *Exec) error {
	total := x.tapGrads[s.idx]
	x.tapGrads[s.idx] = nil // consumed below
	if x.grad != nil {
		for j, v := range x.grad.Data {
			total.Data[j] += v
		}
		wsPut(x.arena, x.grad)
	}
	g, err := s.m.backward(x.arena, total, !x.first)
	if err != nil {
		return err
	}
	x.grad = g
	return nil
}

// fuseStage concatenates all parked taps column-wise (DGCNN's skip
// aggregation before the embedding MLP).
type fuseStage struct {
	name string
	cols []int // backward cache: tap widths from the last training forward
}

func (s *fuseStage) Name() string        { return s.name }
func (s *fuseStage) Params() []*nn.Param { return nil }

func (s *fuseStage) SetTrainArena(*tensor.Workspace) { s.cols = nil }

//edgepc:hotpath
func (s *fuseStage) Forward(x *Exec) error {
	outs := x.taps
	fused := outs[0]
	if len(outs) > 1 {
		// Fill the concatenation directly: one buffer, one copy per tap.
		total := 0
		for _, o := range outs {
			total += o.Cols
		}
		fused = wsGet(x.scratch(), outs[0].Rows, total)
		off := 0
		for _, o := range outs {
			for r := 0; r < o.Rows; r++ {
				copy(fused.Row(r)[off:off+o.Cols], o.Row(r))
			}
			off += o.Cols
		}
		for _, o := range outs {
			wsPut(x.ws, o)
		}
	}
	if x.train {
		s.cols = s.cols[:0]
		for _, o := range outs {
			//edgepc:lint-ignore hotpathalloc train-only backward cache
			s.cols = append(s.cols, o.Cols)
		}
	}
	x.chain = fused
	return nil
}

// Backward splits the fused gradient into per-tap parts for the ecStages.
func (s *fuseStage) Backward(x *Exec) error {
	if s.cols == nil {
		return fmt.Errorf("model: fuse backward before forward(train)")
	}
	g := x.grad
	x.tapGrads = x.tapGrads[:0]
	off := 0
	for _, c := range s.cols {
		part := wsGet(x.arena, g.Rows, c)
		for r := 0; r < g.Rows; r++ {
			copy(part.Row(r), g.Row(r)[off:off+c])
		}
		x.tapGrads = append(x.tapGrads, part)
		off += c
	}
	wsPut(x.arena, g)
	x.grad = nil
	return nil
}

// mlpStage runs a plain layer stack over the chain activation: the
// classification/segmentation heads, DGCNN's embedding MLP, and vanilla
// PointNet's per-point feature extractor. Stages that represent feature
// compute in the paper's breakdown set record to emit a StageFeature trace
// record.
type mlpStage struct {
	name       string
	mlp        *nn.Sequential
	record     bool
	traceLayer int
}

func (s *mlpStage) Name() string                      { return s.name }
func (s *mlpStage) Params() []*nn.Param               { return s.mlp.Params() }
func (s *mlpStage) SetWorkspace(ws *tensor.Workspace) { s.mlp.SetWorkspace(ws) }
func (s *mlpStage) SetTrainArena(a *tensor.Workspace) { s.mlp.SetTrainArena(a) }
func (s *mlpStage) SetGradQueue(q *nn.GradQueue)      { s.mlp.SetGradQueue(q) }

//edgepc:hotpath
func (s *mlpStage) Forward(x *Exec) error {
	in := x.chain
	var out *tensor.Matrix
	if s.record {
		cin := in.Cols
		dur, err := timed(func() error {
			var e error
			out, e = s.mlp.Forward(in, x.train)
			return e
		})
		if err != nil {
			return err
		}
		x.trace.Add(StageRecord{Stage: StageFeature, Layer: s.traceLayer, Algo: "shared-mlp", Q: in.Rows, CIn: cin, COut: out.Cols, Dur: dur})
	} else {
		var err error
		out, err = s.mlp.Forward(in, x.train)
		if err != nil {
			return err
		}
	}
	if x.ws != nil && out != in {
		wsPut(x.ws, in)
	}
	x.chain = out
	return nil
}

func (s *mlpStage) Backward(x *Exec) error {
	if x.first {
		g := x.grad
		x.grad = nil
		return s.mlp.BackwardParams(g)
	}
	g, err := s.mlp.Backward(x.grad)
	if err != nil {
		return err
	}
	x.grad = g
	return nil
}

// globalPoolStage max-pools the chain activation over all rows into a single
// global descriptor (classification networks), caching the argmax for the
// backward routing.
type globalPoolStage struct {
	name string
	// backward cache
	rows, cols int
	argmax     []int32
}

func (s *globalPoolStage) Name() string        { return s.name }
func (s *globalPoolStage) Params() []*nn.Param { return nil }

func (s *globalPoolStage) SetTrainArena(*tensor.Workspace) { s.argmax = nil }

//edgepc:hotpath
func (s *globalPoolStage) Forward(x *Exec) error {
	in := x.chain
	pooled := wsGet(x.scratch(), 1, in.Cols)
	var argmax []int32
	if x.train {
		argmax = wsGet(x.arena, 1, in.Cols).Int32s()
		s.rows, s.cols, s.argmax = in.Rows, in.Cols, argmax
	}
	tensor.ColMaxInto(pooled.Data, argmax, in)
	wsPut(x.ws, in)
	x.chain = pooled
	return nil
}

// Backward routes the pooled gradient back to the argmax rows.
func (s *globalPoolStage) Backward(x *Exec) error {
	if s.argmax == nil {
		return fmt.Errorf("model: pool backward before forward(train)")
	}
	full := wsGet(x.arena, s.rows, s.cols)
	full.Zero()
	for c, v := range x.grad.Row(0) {
		full.Data[int(s.argmax[c])*s.cols+c] += v
	}
	wsPut(x.arena, x.grad)
	x.grad = full
	return nil
}
