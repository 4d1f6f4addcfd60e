package model

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/spatial"
	"repro/internal/tensor"
)

// This file is the stage-graph executor: the one place that owns the
// machinery every architecture used to hand-roll — the level stack, the
// inference workspace lifecycle, structurization, per-node trace spans, and
// the neighbor-reuse cache. A network is a declarative list of Stages
// compiled into a Graph; PointNet++, DGCNN and vanilla PointNet are all
// thin wrappers over one (see pointnet2.go, dgcnn.go, pointnet.go). New
// sampler/searcher variants plug in as new Stage implementations without
// touching the executor or the existing models.

// Stage is one node of a compiled model graph. Forward advances the
// execution state (typically consuming Exec.Chain and/or the level stack and
// leaving its output in Exec.Chain); Backward runs during the reversed stage
// walk and propagates Exec state gradients. Stages that carry trainable
// weights expose them via Params (in forward execution order, the order
// nn.ShareParams relies on).
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

	// reuse carries neighbor indexes across stages under the graph's
	// ReusePolicy; reset at each frame start.
	reuse   *core.ReuseCache
	reuseOn bool

	// levels is the resolution stack: levels[0] is the (possibly
	// structurized) input; sampling stages push, and the headers are
	// recycled across frames.
	levels []*level

	// index is the graph's one spatial index (see package spatial) and
	// indexed the level it is bound to. The exact sites of a frame take turns
	// with it: an SA module's FPS and neighbor search run in one
	// SampleSearch on the same level and share one build; an FP module's
	// 3-NN binds it to its coarse level again — a rebuild (≈ 0.06 ms for
	// 2048 points) instead of an index per level kept resident.
	index   spatial.Index
	indexed *level

	// chain is the activation flowing from stage to stage.
	chain *tensor.Matrix

	// taps are stage outputs parked for a later fusion stage (DGCNN's skip
	// concatenation).
	taps []*tensor.Matrix

	// Backward state: grad is the chain gradient, dlevel accumulates
	// per-level feature gradients, tapGrads the per-tap gradients.
	grad     *tensor.Matrix
	dlevel   []*tensor.Matrix
	tapGrads []*tensor.Matrix
}

// Workspace returns the frame's inference workspace (nil when training).
func (x *Exec) Workspace() *tensor.Workspace { return x.ws }

// scratch returns where the frame's buffers come from: the inference
// workspace on eval frames, the training arena on train frames.
func (x *Exec) scratch() *tensor.Workspace {
	if x.train {
		return x.arena
	}
	return x.ws
}

// Trace returns the frame's trace (possibly nil).
func (x *Exec) Trace() *Trace { return x.trace }

// Train reports whether this is a training forward.
func (x *Exec) Train() bool { return x.train }

// Reuse returns the graph's neighbor-reuse cache.
func (x *Exec) Reuse() *core.ReuseCache { return x.reuse }

// Chain returns the activation flowing out of the previous stage.
func (x *Exec) Chain() *tensor.Matrix { return x.chain }

// SetChain hands an activation to the next stage.
func (x *Exec) SetChain(m *tensor.Matrix) { x.chain = m }

// LevelCount returns the current depth of the level stack.
func (x *Exec) LevelCount() int { return len(x.levels) }

// top returns the innermost level.
func (x *Exec) top() *level { return x.levels[len(x.levels)-1] }

// exact returns the spatial index bound to lv's points. Binding does no
// work; the first query builds, inside the timed block of the stage that
// asked, so that stage's record carries the build.
func (x *Exec) exact(lv *level) *spatial.Index {
	if x.indexed != lv {
		x.index.Reset(lv.pts)
		x.indexed = lv
	}
	return &x.index
}

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
	// Reuse is the neighbor-index reuse policy shared by all stages.
	Reuse core.ReusePolicy
}

// Graph is a compiled model: the executor for a declarative stage list. It
// owns the shared forward/backward machinery exactly once — input
// structurization, the level stack, the inference workspace, per-node trace
// spans, and the neighbor-reuse cache.
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

	x Exec

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
	g.x.reuse = core.NewReuseCache(spec.Reuse)
	g.x.reuseOn = spec.Reuse.Distance > 0
	return g, nil
}

// Stages returns the compiled stage list (do not mutate).
func (g *Graph) Stages() []Stage { return g.spec.Stages }

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
			g.attachArena(nil)
			g.arena = nil
		}
		return nil
	}
	if g.arena == nil {
		g.arena = tensor.NewWorkspace()
		g.attachArena(g.arena)
	}
	g.arena.Reset()
	return g.arena
}

// attachArena sets a on every stage that takes an arena.
func (g *Graph) attachArena(a *tensor.Workspace) {
	for _, s := range g.spec.Stages {
		if u, ok := s.(nn.TrainArenaUser); ok {
			u.SetTrainArena(a)
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
	x := &g.x
	g.trained = false
	x.ws = g.workspace(train)
	x.arena = g.trainArena(train)
	x.trace = trace
	x.train = train
	x.levels = x.levels[:0]
	x.indexed = nil // level headers are recycled: last frame's binding means nothing
	x.taps = x.taps[:0]
	x.chain = nil
	x.reuse.Reset()

	pts := cloud.Points
	feat, featDim := cloud.Feat, cloud.FeatDim
	labels := cloud.Labels
	var perm []int
	sorted := false
	if g.spec.Structurize != nil {
		start := time.Now()
		s, err := core.Structurize(cloud, *g.spec.Structurize)
		if err != nil {
			return nil, err
		}
		dur := time.Since(start)
		trace.Add(StageRecord{Stage: StageStructurize, Layer: 0, Algo: "morton", N: cloud.Len(), Dur: dur})
		if trace != nil {
			trace.AddSpan(Span{Node: "structurize", Layer: -1, Dur: dur, Rec0: len(trace.Records) - 1, Rec1: len(trace.Records)})
		}
		pts = s.Cloud.Points
		feat, featDim = s.Cloud.Feat, s.Cloud.FeatDim
		labels = s.Cloud.Labels
		perm = s.Perm
		sorted = true
	}
	feats, err := inputFeatures(x.scratch(), pts, feat, featDim, g.spec.ExtraFeatDim)
	if err != nil {
		return nil, err
	}
	lv := x.pushLevel()
	lv.pts, lv.feats, lv.mortonSorted = pts, feats, sorted
	x.chain = feats

	for _, s := range g.spec.Stages {
		rec0 := 0
		if trace != nil {
			rec0 = len(trace.Records)
		}
		start := time.Now()
		if err := s.Forward(x); err != nil {
			return nil, err
		}
		if trace != nil {
			trace.AddSpan(Span{Node: s.Name(), Layer: stageLayer(s), Dur: time.Since(start), Rec0: rec0, Rec1: len(trace.Records)})
		}
	}

	logits := x.chain
	if ws := x.scratch(); ws != nil && ws.Owns(logits) {
		// Detach the result from the workspace or arena so the Output
		// survives the next frame's Reset.
		//edgepc:lint-ignore hotpathalloc deliberate: the Output contract requires logits to outlive the frame
		logits = logits.Clone()
	}
	g.trained = train
	return &Output{Logits: logits, Labels: labels, Perm: perm}, nil
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
// gradients.
func (g *Graph) Backward(gradLogits *tensor.Matrix) error {
	if !g.trained {
		return fmt.Errorf("model: backward before forward(train)")
	}
	x := &g.x
	x.grad = gradLogits
	x.dlevel = x.dlevel[:0]
	x.tapGrads = x.tapGrads[:0]
	var err error
	for i := len(g.spec.Stages) - 1; i >= 0 && err == nil; i-- {
		err = g.spec.Stages[i].Backward(x)
	}
	// The gradients still held are arena buffers: let go of them, so that
	// ending the session frees the arena.
	x.grad = nil
	clear(x.dlevel)
	clear(x.tapGrads)
	return err
}
