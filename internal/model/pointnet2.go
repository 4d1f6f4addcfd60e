package model

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// SAModule is a PointNet++ SetAbstraction module: down-sample, search
// neighbors, group, and run a shared MLP with max pooling over neighbors. The
// first two are its coordinate half (plan), the last two its feature half
// (forward).
type SAModule struct {
	Frac float64 // output point fraction of the input level
	K    int     // neighbors per sampled point
	MLP  *nn.Sequential
	// Sampler selects the algorithm for the non-Morton sampling path:
	// exact FPS (default; through the level's spatial index), bucketed
	// pruned FPS, or pure index stride. When the module is a Morton one, it
	// wins over this knob. Bucketed FPS's picks depend on the parent level's
	// order as it stands — its stride seeds are positions in it — but they
	// are computed through the spatial index too.
	Sampler sample.Arch
	// Quality is the BucketFPS Frac knob (ignored by the other archs).
	Quality float64

	// morton selects, on a Morton-sorted level, index-stride sampling and
	// the index-window search of width windowW (0 → W = k, the pure index
	// pick) instead of FPS and exact kNN.
	morton  bool
	windowW int

	cache saCache
}

type saCache struct {
	parentRows, parentCols int
	nbr                    []int // the plan's: Backward runs before the next Forward
	argmax                 []int32
	k                      int
}

func clampK(k, n int) int {
	if k > n {
		return n
	}
	return k
}

// plan is the module's coordinate half: it samples level l of p into level
// l+1 and fills entry l with the neighbor list and the sample and neighbor
// records. Every buffer is the plan's, reused across frames.
//
//edgepc:hotpath
func (m *SAModule) plan(p *plan, l int) error {
	parent, next, e := &p.levels[l], &p.levels[l+1], &p.saPlans[l]
	n := len(parent.pts)
	nOut := int(float64(float64(n)*m.Frac) + 0.5)
	if nOut < 1 {
		nOut = 1
	}
	if nOut > n {
		nOut = n
	}
	k := clampK(m.K, n)

	// --- Sample stage, and the exact neighbor search streamed beside it ---
	// A Morton module's level is already Morton-sorted (the encode+sort cost
	// is the pipeline's one-time StageStructurize record), so sampling is a
	// pure index-stride pick and the neighbors come from the index window.
	// Otherwise the picks are exact FPS's, or bucketed pruned FPS's at the
	// module's quality — the picks of sample.BucketFPS over the level as it
	// stands — computed through the level's spatial index, whose order
	// prunes better, and the index searches every pick while the sampler
	// makes the next.
	useMorton := m.morton && parent.mortonSorted
	sampleAlgo := m.Sampler.String()
	sel, nbr := next.posInParent, e.nbr
	var dur, nsDur time.Duration
	var err error
	start := time.Now()
	if useMorton {
		sampleAlgo = "morton-pick"
		sel = sample.UniformIndexesInto(sel, n, nOut) // core.SamplePositions, into sel
		dur = time.Since(start)
	} else {
		sel, nbr, dur, err = parent.index.SampleSearch(m.Sampler, m.Quality, nOut, k, sel, nbr)
		nsDur = time.Since(start) - dur
	}
	if err != nil {
		return fmt.Errorf("model: SA%d sample: %w", l, err)
	}
	e.sample = StageRecord{Stage: StageSample, Layer: l, Algo: sampleAlgo, N: n, Q: nOut, Dur: dur}

	// --- Neighbor search stage ---
	// A list on the index is already computed; its record is the search the
	// sampler did not hide. The labels name what is computed — the brute
	// searcher's result, index for index — and are what edgesim prices.
	nsAlgo, w := "knn-brute", 0
	if useMorton {
		nsAlgo, w = "morton-window", max(m.windowW, k)
		start = time.Now()
		nbr, err = core.WindowSearcher{W: m.windowW}.SearchPositionsInto(nbr, parent.pts, sel, k)
		nsDur = time.Since(start)
		if err != nil {
			return fmt.Errorf("model: SA%d neighbor: %w", l, err)
		}
	}
	e.neighbor = StageRecord{Stage: StageNeighbor, Layer: l, Algo: nsAlgo, N: n, Q: nOut, K: k, W: w, Dur: nsDur}
	e.nbr, e.k = nbr, k

	if cap(next.ptsBuf) < nOut {
		//edgepc:lint-ignore hotpathalloc cap-guarded grow; steady-state frames reuse the buffer
		next.ptsBuf = make([]geom.Point3, nOut)
	}
	centers := next.ptsBuf[:nOut]
	for i, s := range sel {
		centers[i] = parent.pts[s]
	}
	next.pts, next.mortonSorted, next.posInParent = centers, useMorton, sel
	next.index.Reset(centers)
	return nil
}

// forward is the module's feature half: it groups the parent level's
// features by entry pl's neighbor list and fills next with the sampled
// level's features. Execution context (trace, train flag, workspace or
// training arena) comes from the Graph's Exec; train and x.ws != nil are
// mutually exclusive.
//
//edgepc:hotpath
func (m *SAModule) forward(parent, next *level, pl *saPlan, layer int, x *Exec) error {
	trace, train, ws := x.trace, x.train, x.ws
	n, nOut, k := parent.len(), next.len(), pl.k

	// --- Group stage ---
	var grouped *tensor.Matrix
	dur, err := timed(func() error {
		var e error
		grouped, e = buildGroupedSA(x.scratch(), parent.pts, parent.feats, next.pts, pl.nbr, k)
		return e
	})
	if err != nil {
		return fmt.Errorf("model: SA%d group: %w", layer, err)
	}
	trace.Add(StageRecord{Stage: StageGroup, Layer: layer, Algo: "gather", N: n, Q: nOut, K: k, CIn: grouped.Cols, Dur: dur})

	// --- Feature compute stage ---
	var feats *tensor.Matrix
	var argmax []int32
	cin := grouped.Cols
	dur, err = timed(func() error {
		if ws != nil {
			// The pool rides in the MLP's last pass: only the (Q × C) result
			// is written, and the grouped matrix is dead once consumed.
			var e error
			feats, e = m.MLP.ForwardPooled(grouped, k)
			wsPut(ws, grouped)
			return e
		}
		// Training: the pool keeps its argmax for backward.
		y, e := m.MLP.Forward(grouped, train)
		if e != nil {
			return e
		}
		feats = wsGet(x.arena, nOut, y.Cols)
		argmax = wsGet(x.arena, nOut, y.Cols).Int32s()
		return tensor.MaxPoolGroupsInto(feats, argmax, y, k)
	})
	if err != nil {
		return fmt.Errorf("model: SA%d feature: %w", layer, err)
	}
	trace.Add(StageRecord{Stage: StageFeature, Layer: layer, Algo: "shared-mlp", Q: nOut * k, CIn: cin, COut: feats.Cols, Dur: dur})

	if train {
		m.cache = saCache{parentRows: n, parentCols: parent.feats.Cols, nbr: pl.nbr, argmax: argmax, k: k}
	}
	next.feats = feats
	return nil
}

// backward routes the gradient of this module's output features back to the
// parent level's features, every buffer from the training arena a; grad is
// consumed. Without input (the parent is the input level) it accumulates the
// parameter gradients only and returns nil.
func (m *SAModule) backward(a *tensor.Workspace, grad *tensor.Matrix, input bool) (*tensor.Matrix, error) {
	c := &m.cache
	if c.nbr == nil {
		return nil, fmt.Errorf("model: SA backward before forward(train)")
	}
	g := wsGet(a, grad.Rows*c.k, grad.Cols)
	if err := tensor.MaxPoolBackwardInto(g, grad, c.argmax, c.k); err != nil {
		return nil, err
	}
	wsPut(a, grad)
	if !input {
		return nil, m.MLP.BackwardParams(g)
	}
	g, err := m.MLP.Backward(g)
	if err != nil {
		return nil, err
	}
	d, err := groupedSABackward(a, g, c.nbr, c.parentRows, c.parentCols)
	wsPut(a, g)
	return d, err
}

// FPModule is a PointNet++ FeaturePropagation module: interpolate coarse
// features onto the finer level, concatenate the fine level's skip features,
// and run a shared MLP. The interpolation plan is its coordinate half
// (plan), the rest its feature half (forward).
type FPModule struct {
	MLP *nn.Sequential

	// morton selects stride-bracket interpolation instead of ThreeNN when
	// the fine level is Morton-sorted.
	morton bool

	cache fpCache
}

type fpCache struct {
	plan       *sample.InterpPlan // the plan's: Backward runs before the next Forward
	coarseRows int
	interpCols int
	skipCols   int
}

// plan is the module's coordinate half: FP module i of p's graph refines
// level D−i to level D−1−i, and this fills entry i with that interpolation
// plan (the up-sampling stage of Fig. 9) and its record.
//
//edgepc:hotpath
func (m *FPModule) plan(p *plan, i int) error {
	depth := len(p.sa)
	fine, coarse, e := &p.levels[depth-1-i], &p.levels[depth-i], &p.fpPlans[i]
	// A Morton FP produces the level its matching SA module sampled, so a
	// Morton-sorted fine level had a Morton SA, whose stride picks are the
	// ascending positions the bracket search needs. Otherwise the coarse
	// level's index answers the 3-NN; its SA module built the grid already
	// (the deepest level's is built here).
	algo := "three-nn"
	start := time.Now()
	var err error
	if m.morton && fine.mortonSorted {
		algo = "morton-interp"
		err = core.MortonInterp{}.PlanStructurizedInto(&e.interp, fine.pts, coarse.posInParent)
	} else {
		err = coarse.index.ThreeNNInto(&e.interp, fine.pts)
	}
	dur := time.Since(start)
	if err != nil {
		return fmt.Errorf("model: FP%d interp plan: %w", i, err)
	}
	e.rec = StageRecord{Stage: StageInterp, Layer: i, Algo: algo, N: len(fine.pts), Q: len(coarse.pts), K: e.interp.K, Dur: dur}
	return nil
}

// forward is the module's feature half: it interpolates coarseFeats
// (features at the coarse level) onto the fine level by plan and fuses them
// with the fine level's own features. Execution context comes from the
// Graph's Exec, the same contract as SAModule.forward.
//
//edgepc:hotpath
func (m *FPModule) forward(fine, coarse *level, coarseFeats *tensor.Matrix, plan *sample.InterpPlan, layer int, x *Exec) (*tensor.Matrix, error) {
	trace, train, ws := x.trace, x.train, x.ws
	var out *tensor.Matrix
	interpCols := coarseFeats.Cols
	var cin int
	dur, err := timed(func() error {
		// [interp | skip] is built in place: the plan writes the left
		// columns of the fused buffer and the fine level's own features
		// (one row per point, as every level's) are copied into the right
		// ones.
		fused := wsGet(x.scratch(), fine.len(), interpCols+fine.feats.Cols)
		if _, e := sample.ApplyPlan(plan, coarseFeats.Data, interpCols, fused.Data, fused.Cols); e != nil {
			return e
		}
		for r := 0; r < fused.Rows; r++ {
			copy(fused.Row(r)[interpCols:], fine.feats.Row(r))
		}
		cin = fused.Cols
		var e error
		out, e = m.MLP.Forward(fused, train)
		if e == nil && ws != nil && out != fused {
			wsPut(ws, fused)
		}
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("model: FP%d feature: %w", layer, err)
	}
	trace.Add(StageRecord{Stage: StageFeature, Layer: layer, Algo: "shared-mlp", Q: fine.len(), CIn: cin, COut: out.Cols, Dur: dur})

	if train {
		m.cache = fpCache{plan: plan, coarseRows: coarse.len(), interpCols: interpCols, skipCols: fine.feats.Cols}
	}
	return out, nil
}

// backward returns (gradSkip, gradCoarseFeats), every buffer from the
// training arena a; grad is consumed. Without skip (the fine level is the
// input level) gradSkip is nil.
func (m *FPModule) backward(a *tensor.Workspace, grad *tensor.Matrix, skip bool) (*tensor.Matrix, *tensor.Matrix, error) {
	c := &m.cache
	if c.plan == nil {
		return nil, nil, fmt.Errorf("model: FP backward before forward(train)")
	}
	g, err := m.MLP.Backward(grad)
	if err != nil {
		return nil, nil, err
	}
	// g is [dInterp | dSkip]: the skip part is the fine level's gradient, the
	// interpolated part goes back through the plan.
	var gSkip *tensor.Matrix
	if skip {
		gSkip = wsGet(a, g.Rows, c.skipCols)
		for r := 0; r < g.Rows; r++ {
			copy(gSkip.Row(r), g.Row(r)[c.interpCols:])
		}
	}
	// Adjoint of ApplyPlan: dCoarse[src] += w · dInterp[target].
	gCoarse := wsGet(a, c.coarseRows, c.interpCols)
	gCoarse.Zero()
	k := c.plan.K
	for t := 0; t < g.Rows; t++ {
		row := g.Row(t)[:c.interpCols]
		for j := 0; j < k; j++ {
			s := int(c.plan.Indexes[t*k+j])
			w := c.plan.Weights[t*k+j]
			dst := gCoarse.Row(s)
			for col, v := range row {
				dst[col] += float32(w * v)
			}
		}
	}
	wsPut(a, g)
	return gSkip, gCoarse, nil
}

// PointNetPP is the PointNet++ semantic-segmentation network of Fig. 2a:
// Depth SetAbstraction modules followed by Depth FeaturePropagation modules
// and a per-point classification head, compiled into a stage Graph (see
// graph.go) that owns the shared executor machinery.
//
// Concurrency: see Graph — eval-mode weight-sharing replicas may run
// concurrently, one per goroutine; training must own the weights.
type PointNetPP struct {
	SA   []*SAModule
	FP   []*FPModule // FP[i] refines level Depth−i → Depth−1−i
	Head *nn.Sequential

	// Structurize, when non-nil, Morton-orders the input cloud before the
	// first module (the EdgePC configurations).
	Structurize *core.StructurizeOptions

	graph *Graph
}

// Output bundles the per-point logits with the label order they correspond
// to (structurization permutes the points; labels are carried along).
type Output struct {
	Logits *tensor.Matrix
	Labels []int32
	// Perm maps logits row → original cloud index (nil when no
	// structurization happened).
	Perm []int
}

// PPConfig describes a PointNet++ instance.
type PPConfig struct {
	Classes    int
	Depth      int     // number of SA (= FP) modules; default 4
	BaseWidth  int     // width of the first SA module; doubles per level; default 16
	K          int     // neighbors per query; default 8
	SampleFrac float64 // per-module down-sampling ratio; default 0.25
	// SampleArch selects the sampler for SA modules that are not Morton
	// ones: exact FPS (default), bucketed pruned FPS, or stride (see
	// SAModule.Sampler).
	SampleArch sample.Arch
	// SampleQuality is the BucketFPS quality knob in [0,1]; 0 defaults to 1
	// (exact picks, pruning as pure speedup).
	SampleQuality float64
	// ExtraFeatDim is the width of per-point input features beyond the
	// coordinates (e.g. 3 for RGB in S3DIS); input clouds must carry
	// exactly this FeatDim.
	ExtraFeatDim int
	// MortonLayers is how many leading levels run the EdgePC Morton
	// approximations on a structurized cloud (§5.1.3): SA module l samples
	// by index stride and searches the index window, and the FP module
	// producing level l interpolates by stride brackets, iff l <
	// MortonLayers. 0 runs the SOTA stages everywhere; the paper's design
	// point is 1 (the first SA and the last FP).
	MortonLayers int
	// WindowW is the Morton window size W (0 → W = k, the pure index pick).
	WindowW     int
	Structurize *core.StructurizeOptions
	// Dropout is the head dropout probability; 0 selects the default (0.3),
	// a negative value disables dropout (useful for gradient checking).
	Dropout float64
	Seed    int64
}

func (c *PPConfig) defaults() {
	if c.Depth == 0 {
		c.Depth = 4
	}
	if c.BaseWidth == 0 {
		c.BaseWidth = 16
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.SampleFrac == 0 {
		c.SampleFrac = 0.25
	}
	if c.SampleQuality == 0 {
		c.SampleQuality = 1
	}
}

func (c *PPConfig) validate() error {
	if c.Classes < 2 {
		return fmt.Errorf("model: need ≥2 classes, got %d", c.Classes)
	}
	if c.SampleFrac <= 0 || c.SampleFrac > 1 {
		return fmt.Errorf("model: sample fraction %v out of (0, 1]", c.SampleFrac)
	}
	if c.SampleQuality < 0 || c.SampleQuality > 1 {
		return fmt.Errorf("model: sample quality %v out of [0, 1]", c.SampleQuality)
	}
	return nil
}

// saWidth returns the SA output width at level L (1-based).
func saWidth(base, l int) int { return base << (l - 1) }

// dropoutP maps the config convention (0 → default, negative → disabled) to
// a probability.
func dropoutP(v float64) float64 {
	switch {
	case v < 0:
		return 0
	case v == 0:
		return 0.3
	default:
		return v
	}
}

// NewPointNetPP constructs the network.
func NewPointNetPP(cfg PPConfig) (*PointNetPP, error) {
	cfg.defaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	net := &PointNetPP{Structurize: cfg.Structurize}
	inC := 3 + cfg.ExtraFeatDim // level-0 features: coordinates ⊕ extras
	for l := 1; l <= cfg.Depth; l++ {
		w := saWidth(cfg.BaseWidth, l)
		net.SA = append(net.SA, &SAModule{
			Frac:    cfg.SampleFrac,
			K:       cfg.K,
			MLP:     nn.NewSharedMLP(fmt.Sprintf("sa%d", l), []int{3 + inC, w, w}, rng),
			Sampler: cfg.SampleArch,
			Quality: cfg.SampleQuality,
			morton:  l-1 < cfg.MortonLayers,
			windowW: cfg.WindowW,
		})
		inC = w
	}
	// FP chain: FP[i] produces level L = Depth−1−i.
	coarseC := saWidth(cfg.BaseWidth, cfg.Depth)
	for i := 0; i < cfg.Depth; i++ {
		l := cfg.Depth - 1 - i
		skipC := 3 + cfg.ExtraFeatDim
		if l >= 1 {
			skipC = saWidth(cfg.BaseWidth, l)
		}
		outC := cfg.BaseWidth
		if l >= 1 {
			outC = saWidth(cfg.BaseWidth, l)
		}
		net.FP = append(net.FP, &FPModule{
			MLP:    nn.NewSharedMLP(fmt.Sprintf("fp%d", i), []int{coarseC + skipC, outC}, rng),
			morton: l < cfg.MortonLayers,
		})
		coarseC = outC
	}
	net.Head = nn.NewSequential(
		nn.NewLinear("head.0", coarseC, cfg.BaseWidth, rng),
		nn.NewBatchNorm("head.0.bn", cfg.BaseWidth),
		&nn.ReLU{},
		&nn.Dropout{P: dropoutP(cfg.Dropout), Rng: rand.New(rand.NewSource(cfg.Seed + 2))},
		nn.NewLinear("head.1", cfg.BaseWidth, cfg.Classes, rng),
	)
	// Declarative stage list: SA chain, FP chain, head — compiled into the
	// shared Graph executor.
	stages := make([]Stage, 0, 2*cfg.Depth+1)
	for i, m := range net.SA {
		stages = append(stages, &saStage{name: fmt.Sprintf("sa%d", i), idx: i, m: m})
	}
	for i, m := range net.FP {
		stages = append(stages, &fpStage{name: fmt.Sprintf("fp%d", i), idx: i, depth: cfg.Depth, m: m})
	}
	stages = append(stages, &mlpStage{name: "head", mlp: net.Head})
	g, err := Compile(GraphSpec{
		Stages:       stages,
		Structurize:  cfg.Structurize,
		ExtraFeatDim: cfg.ExtraFeatDim,
	})
	if err != nil {
		return nil, err
	}
	g.x.plan = newPlan(net.SA, net.FP)
	net.graph = g
	return net, nil
}

// Params returns all trainable parameters.
func (n *PointNetPP) Params() []*nn.Param { return n.graph.Params() }

// Forward runs inference (or the training forward pass) on one cloud and
// returns per-point logits aligned with Output.Labels; see Graph.Forward for
// the workspace contract.
func (n *PointNetPP) Forward(cloud *geom.Cloud, trace *Trace, train bool) (*Output, error) {
	return n.graph.Forward(cloud, trace, train)
}

// Backward propagates the loss gradient (w.r.t. Forward's logits) through the
// whole network, accumulating parameter gradients.
func (n *PointNetPP) Backward(gradLogits *tensor.Matrix) error {
	return n.graph.Backward(gradLogits)
}
