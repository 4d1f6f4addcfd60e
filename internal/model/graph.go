package model

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// This file is the stage-graph executor: the one place that owns the
// machinery every architecture used to hand-roll — the level stack, the
// inference workspace lifecycle, structurization, per-node trace spans, and
// DGCNN's neighbor reuse. A network is a declarative list of Stages
// compiled into a Graph; PointNet++, DGCNN and vanilla PointNet are all
// thin wrappers over one (see pointnet2.go, dgcnn.go, pointnet.go).

// Stage is one node of a compiled model graph. Forward advances the
// execution state (typically consuming the chain activation and/or the level
// stack and leaving its output as the chain); Backward runs during the
// reversed stage walk and propagates Exec state gradients. Stages that carry
// trainable weights expose them via Params (in forward execution order, the
// order nn.ShareParams relies on).
//
// A Stage that serves eval activations from the shared workspace should also
// implement nn.WorkspaceUser; the Graph attaches its workspace to every such
// stage exactly once, at first eval use. A Stage with layers or backward
// caches implements nn.TrainArenaUser: the Graph attaches its training arena
// at the start of a training session and nil at its end.
type Stage interface {
	Name() string
	Forward(x *Exec) error
	Backward(x *Exec) error
	Params() []*nn.Param
}

// Exec is the mutable per-frame execution state a Graph threads through its
// stages. It persists across frames (slices are truncated, not freed), which
// is what keeps the steady-state inference path allocation-free.
type Exec struct {
	ws    *tensor.Workspace
	trace *Trace
	train bool

	// arena is the graph's training arena on train frames (nil on eval
	// ones): every activation the forward keeps for backward, and every
	// gradient, comes from it.
	arena *tensor.Workspace

	// reuse is the graph's ReusePolicy, and nbr the neighbor list of the
	// last layer that computed one, which the layers reusing it read
	// (DGCNN's EdgeConv modules; cleared at each frame start).
	reuse core.ReusePolicy
	nbr   []int

	// levels is the resolution stack: levels[0] is the (possibly
	// structurized) input; sampling stages push, and the headers are
	// recycled across frames.
	levels []*level

	// plan is the graph's coordinate chain (PointNet++'s, set by its
	// constructor; nil for the other architectures): Forward runs it beside
	// the feature pass, which waits on its entries.
	plan *plan

	// lead is the frame's head not yet charged to a span — the input check,
	// and the input-feature matrix — which the next span (structurize, or
	// the first stage) carries, so the spans cover the frame.
	lead time.Duration

	// chain is the activation flowing from stage to stage.
	chain *tensor.Matrix

	// taps are stage outputs parked for a later fusion stage (DGCNN's skip
	// concatenation).
	taps []*tensor.Matrix

	// Backward state: grad is the chain gradient, dlevel accumulates
	// per-level feature gradients, tapGrads the per-tap gradients. first is
	// set while the first stage's Backward runs: its input is the cloud's
	// own features, whose gradient no stage reads, so it computes none (nor
	// does any stage the gradient of level 0).
	grad     *tensor.Matrix
	dlevel   []*tensor.Matrix
	tapGrads []*tensor.Matrix
	first    bool
}

// scratch returns where the frame's buffers come from: the inference
// workspace on eval frames, the training arena on train frames.
func (x *Exec) scratch() *tensor.Workspace {
	if x.train {
		return x.arena
	}
	return x.ws
}

// top returns the innermost level.
func (x *Exec) top() *level { return x.levels[len(x.levels)-1] }

// pushLevel appends a zeroed level to the stack, recycling the header
// allocated for the same position in an earlier frame when possible.
func (x *Exec) pushLevel() *level {
	if len(x.levels) < cap(x.levels) {
		x.levels = x.levels[:len(x.levels)+1]
		if lv := x.levels[len(x.levels)-1]; lv != nil {
			*lv = level{}
			return lv
		}
	} else {
		x.levels = append(x.levels, nil)
	}
	lv := &level{}
	x.levels[len(x.levels)-1] = lv
	return lv
}

// setLevelGrad stores the gradient of level i's features, growing the
// accumulator stack as needed.
func (x *Exec) setLevelGrad(i int, g *tensor.Matrix) {
	for len(x.dlevel) <= i {
		x.dlevel = append(x.dlevel, nil)
	}
	x.dlevel[i] = g
}

// addLevelGrad accumulates g into level i's feature gradient; g is consumed.
func (x *Exec) addLevelGrad(i int, g *tensor.Matrix) {
	for len(x.dlevel) <= i {
		x.dlevel = append(x.dlevel, nil)
	}
	if x.dlevel[i] == nil {
		x.dlevel[i] = g
		return
	}
	dst := x.dlevel[i].Data
	for j, v := range g.Data {
		dst[j] += v
	}
	wsPut(x.arena, g)
}

// GraphSpec declares a model graph ahead of compilation.
type GraphSpec struct {
	// Stages in execution order.
	Stages []Stage
	// Structurize, when non-nil, Morton-orders the input cloud before the
	// first stage (the EdgePC configurations).
	Structurize *core.StructurizeOptions
	// ExtraFeatDim is the per-point input feature width beyond coordinates.
	ExtraFeatDim int
	// Reuse is the neighbor-index reuse policy of DGCNN's EdgeConv stages.
	Reuse core.ReusePolicy
}

// Graph is a compiled model: the executor for a declarative stage list. It
// owns the shared forward/backward machinery exactly once — input
// structurization, the level stack, the inference workspace, per-node trace
// spans, and the neighbor list reusing layers read.
//
// Concurrency: a Graph is NOT safe for concurrent use — Forward mutates the
// per-graph workspace and stage caches. Eval-mode Forward (train=false) only
// *reads* the trainable weights, so weight-sharing replicas
// (pipeline.Replicas / nn.ShareParams) may run concurrently, one replica per
// goroutine (internal/serve). Training mutates weights and must own them
// exclusively.
type Graph struct {
	spec   GraphSpec
	params []*nn.Param

	// ws is the inference workspace: lazily created at the first eval
	// Forward, attached to every workspace-capable stage, and Reset at each
	// eval frame start so frame N+1 reuses frame N's buffers. The training
	// path never touches it.
	ws *tensor.Workspace

	// arena is the training arena, kept apart from ws because an eval frame
	// recycles an intermediate as soon as it is consumed and a training step
	// keeps it for backward: created at the first train Forward of a session
	// and attached to every stage, Reset at each train Forward, and dropped
	// with every backward cache by the eval Forward that ends the session.
	arena *tensor.Workspace
	// grads is the training session's weight-gradient queue, made and
	// attached with the arena: on a step from gradGrain points up on more
	// than one core, every Linear's dW and bias sums run on its worker
	// beside the stage walk.
	grads *nn.GradQueue

	// st structurizes each frame into buffers kept across frames (the
	// EdgePC configurations).
	st core.Structurizer

	x Exec
	// run is the body of a planned frame's two-chain fan-out, back that of
	// a training step's backward.
	run  chains
	back backChains

	// trained is set by a completed training forward and cleared by the
	// next Forward's start, so Backward can verify its precondition (stage
	// caches carry everything else it needs).
	trained bool
}

// Compile validates a spec and builds its executor.
func Compile(spec GraphSpec) (*Graph, error) {
	if len(spec.Stages) == 0 {
		return nil, fmt.Errorf("model: graph needs at least one stage")
	}
	g := &Graph{spec: spec}
	for _, s := range spec.Stages {
		g.params = append(g.params, s.Params()...)
	}
	g.x.reuse = spec.Reuse
	g.run.g = g
	g.back.g = g
	return g, nil
}

// Params returns all trainable parameters in stage order.
func (g *Graph) Params() []*nn.Param { return g.params }

// workspace lazily creates the shared inference workspace, attaches it to
// every stage that can serve activations from one, and starts a fresh frame.
// Returns nil in training mode. This is the single owner of the
// workspace-vs-training decision that each model used to duplicate.
func (g *Graph) workspace(train bool) *tensor.Workspace {
	if train {
		return nil
	}
	if g.ws == nil {
		g.ws = tensor.NewWorkspace()
		for _, s := range g.spec.Stages {
			if u, ok := s.(nn.WorkspaceUser); ok {
				u.SetWorkspace(g.ws)
			}
		}
	}
	g.ws.Reset()
	return g.ws
}

// trainArena returns the training arena on train frames, creating and
// attaching it at the first of a session and Resetting it at each, so that a
// step reuses the last one's buffers. An eval frame ends the session: every
// stage drops the arena and its backward caches, and so does the graph (the
// frame itself overwrites the activations Exec still points at), so the
// trained net keeps no training state and Backward fails until the next
// train Forward.
func (g *Graph) trainArena(train bool) *tensor.Workspace {
	if !train {
		if g.arena != nil {
			g.attachArena(nil, nil)
			g.arena, g.grads = nil, nil
		}
		return nil
	}
	if g.arena == nil {
		// A Linear posts at most one task a step, and has two parameters.
		g.arena, g.grads = tensor.NewWorkspace(), nn.NewGradQueue(len(g.params))
		g.attachArena(g.arena, g.grads)
	}
	g.arena.Reset()
	return g.arena
}

// attachArena sets a and q on every stage that takes them.
func (g *Graph) attachArena(a *tensor.Workspace, q *nn.GradQueue) {
	for _, s := range g.spec.Stages {
		if u, ok := s.(nn.TrainArenaUser); ok {
			u.SetTrainArena(a)
		}
		if u, ok := s.(nn.GradQueueUser); ok {
			u.SetGradQueue(q)
		}
	}
}

// Forward runs one cloud through the compiled graph and returns logits
// aligned with Output.Labels. Eval frames (train=false) serve all
// intermediate activations from the per-graph workspace; the returned logits
// are cloned out of it, so an Output remains valid across subsequent Forward
// calls.
//
//edgepc:hotpath
func (g *Graph) Forward(cloud *geom.Cloud, trace *Trace, train bool) (*Output, error) {
	if cloud.Len() == 0 {
		return nil, fmt.Errorf("model: empty cloud")
	}
	// A non-finite coordinate poisons every distance the searches compare,
	// an overflowing one ties every candidate at +Inf, and DGCNN's feature
	// kNN never takes a distance at its 1e300 sentinel: a neighbor list
	// would keep index −1 for such a point.
	// The check's time is charged to the frame's first span (x.lead).
	t0 := time.Now()
	box, err := geom.CheckSpan(cloud.Points)
	if err != nil {
		return nil, fmt.Errorf("model: cloud: %w", err)
	}
	x := &g.x
	x.lead = time.Since(t0)
	g.trained = false
	x.ws = g.workspace(train)
	x.arena = g.trainArena(train)
	x.trace = trace
	x.train = train
	x.levels = x.levels[:0]
	x.taps = x.taps[:0]
	x.chain = nil
	x.nbr = nil

	pts := cloud.Points
	feat, featDim := cloud.Feat, cloud.FeatDim
	labels := cloud.Labels
	var perm []int
	sorted := false
	if g.spec.Structurize != nil {
		start := time.Now()
		// The sorted points and features live in the graph's buffers until
		// the next frame; the permutation and the labels are the Output's,
		// which outlives it.
		//edgepc:lint-ignore hotpathalloc deliberate: the Output contract requires Perm to outlive the frame
		perm = make([]int, cloud.Len())
		if labels != nil {
			//edgepc:lint-ignore hotpathalloc deliberate: the Output contract requires Labels to outlive the frame
			labels = make([]int32, cloud.Len())
		}
		opts := *g.spec.Structurize
		if opts.Bounds == nil {
			opts.Bounds = &box // the check's box is the cloud's own: no second bounds pass
		}
		pts, feat, err = g.st.Into(cloud, opts, perm, labels)
		if err != nil {
			return nil, err
		}
		// The check computed the bounds the structurization would have:
		// the stage's record and span both carry it.
		dur := x.lead + time.Since(start)
		x.lead = 0
		trace.Add(StageRecord{Stage: StageStructurize, Layer: 0, Algo: "morton", N: cloud.Len(), Dur: dur})
		if trace != nil {
			trace.AddSpan(Span{Node: "structurize", Layer: -1, Dur: dur, Rec0: len(trace.Records) - 1, Rec1: len(trace.Records)})
		}
		sorted = true
	}
	t1 := time.Now()
	feats, err := inputFeatures(x.scratch(), pts, feat, featDim, g.spec.ExtraFeatDim)
	if err != nil {
		return nil, err
	}
	x.lead += time.Since(t1)
	lv := x.pushLevel()
	lv.pts, lv.feats, lv.mortonSorted = pts, feats, sorted
	x.chain = feats

	if p := x.plan; p != nil {
		// The coordinate chain and the feature pass: side by side on two
		// cores, or the planner first and then the pass on one.
		p.reset(pts, sorted)
		parallel.Split(2, chainWorkers(len(pts)), &g.run)
		g.run.panicked.repanic()
		err = g.run.err
	} else {
		err = g.features()
	}
	if err != nil {
		return nil, err
	}

	logits := x.chain
	if ws := x.scratch(); ws != nil && ws.Owns(logits) {
		// Detach the result from the workspace or arena so the Output
		// survives the next frame's Reset. The copy is the frame's tail:
		// its time is charged to the last span, as x.lead is to the first.
		start := time.Now()
		//edgepc:lint-ignore hotpathalloc deliberate: the Output contract requires logits to outlive the frame
		logits = logits.Clone()
		if trace != nil && len(trace.Spans) > 0 {
			trace.Spans[len(trace.Spans)-1].Dur += time.Since(start)
		}
	}
	g.trained = train
	return &Output{Logits: logits, Labels: labels, Perm: perm}, nil
}

// features runs the stage list, one span per stage. On a planned frame
// that is the feature pass, and a span covers its stage's waits on the plan
// too: the spans stay the feature pass's timeline.
//
//edgepc:hotpath
func (g *Graph) features() error {
	x, trace := &g.x, g.x.trace
	for _, s := range g.spec.Stages {
		rec0 := 0
		if trace != nil {
			rec0 = len(trace.Records)
		}
		start := time.Now()
		if err := s.Forward(x); err != nil {
			return err
		}
		if trace != nil {
			trace.AddSpan(Span{Node: s.Name(), Layer: stageLayer(s), Dur: x.lead + time.Since(start), Rec0: rec0, Rec1: len(trace.Records)})
		}
		x.lead = 0
	}
	return nil
}

// layered is implemented by stages tied to a module index; other stages
// report layer -1 in their spans.
type layered interface{ layer() int }

func stageLayer(s Stage) int {
	if l, ok := s.(layered); ok {
		return l.layer()
	}
	return -1
}

// Backward propagates the loss gradient (w.r.t. Forward's logits) through
// the graph by walking the stage list in reverse, accumulating parameter
// gradients. From gradGrain points up on more than one core the walk (the dx
// chain) and the weight-gradient worker run side by side, and Backward
// returns only once both are done, on every path: every Param.Grad write has
// landed and the arena has every gradient back.
func (g *Graph) Backward(gradLogits *tensor.Matrix) error {
	if !g.trained {
		return fmt.Errorf("model: backward before forward(train)")
	}
	x := &g.x
	x.grad = gradLogits
	x.dlevel = x.dlevel[:0]
	x.tapGrads = x.tapGrads[:0]
	var err error
	if gradWorkers(len(x.levels[0].pts)) > 1 {
		g.grads.Start()
		parallel.Split(2, 2, &g.back)
		err = g.back.err
		if qerr := g.grads.Finish(); err == nil {
			err = qerr
		}
	} else {
		err = g.walk()
	}
	// The gradients still held are arena buffers: let go of them, so that
	// ending the session frees the arena.
	x.grad = nil
	clear(x.dlevel)
	clear(x.tapGrads)
	g.back.panicked.repanic()
	return err
}

// walk runs the stages' Backwards in reverse order.
func (g *Graph) walk() error {
	x := &g.x
	for i := len(g.spec.Stages) - 1; i >= 0; i-- {
		x.first = i == 0
		if err := g.spec.Stages[i].Backward(x); err != nil {
			return err
		}
	}
	return nil
}

// gradGrain is the cloud size from which a training step's weight gradients
// run on a second core. Measured on a 2-core Xeon (go1.24.0, a W3 S+N step
// at width 16, medians of six alternating runs of 400 steps, inline →
// worker): 64 points 0.87 → 0.92 ms, 128 points 1.74 → 1.70 ms (2 of 6
// pairs won), 256 points 3.27 → 3.07 ms (4 of 6), 512 points 6.77 →
// 5.67 ms (6 of 6). Below 256 points a task is too small to pay for the
// worker's wake-ups.
const gradGrain = 256

// gradWorkers is how many goroutines a training step of n points runs its
// backward on: two, the weight-gradient worker beside the walk, or one.
func gradWorkers(n int) int {
	if n >= gradGrain && runtime.GOMAXPROCS(0) > 1 {
		return 2
	}
	return 1
}

// backChains is a training step's fan-out body, kept by the Graph so that
// the hand-off allocates nothing: index 0 is the stage walk, index 1 the
// weight-gradient worker.
type backChains struct {
	g        *Graph
	err      error // the walk's
	panicked chainPanics
}

func (c *backChains) Chunk(lo, _ int) {
	defer c.guard(lo)
	q := c.g.grads
	if lo == 1 {
		q.Work()
		return
	}
	// Closing the queue on every way out, a panic's included, lets the
	// worker return once it has run what was posted.
	defer q.Close()
	c.err = c.g.walk()
}

// guard recovers a chain's panic, to be raised again on Backward's caller.
// The walk's has closed the queue on its way out.
func (c *backChains) guard(slot int) {
	if v := recover(); v != nil {
		c.panicked.keep(slot, v)
	}
}
