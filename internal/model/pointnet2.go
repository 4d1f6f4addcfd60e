package model

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/spatial"
	"repro/internal/tensor"
)

// ModuleStrategy selects, for one network module, whether its bottleneck
// stages run the SOTA algorithm or the EdgePC Morton approximation. The
// paper's design point (§5.1.3, §5.2.3) enables Morton only on the critical
// modules: the first SA, the last FP, the first EdgeConv.
type ModuleStrategy struct {
	MortonSample bool // index-stride sampling instead of FPS
	MortonWindow bool // index-window neighbor search instead of BQ/kNN
	WindowW      int  // window size W (0 → W = k, the pure index pick)
	MortonInterp bool // stride-bracket interpolation instead of ThreeNN (FP only)
}

// SAModule is a PointNet++ SetAbstraction module: down-sample, search
// neighbors, group, and run a shared MLP with max pooling over neighbors.
type SAModule struct {
	Frac   float64 // output point fraction of the input level
	K      int     // neighbors per sampled point
	Radius float64 // >0: SOTA searcher is ball query with this radius; 0: kNN
	MLP    *nn.Sequential
	Strat  ModuleStrategy
	// Sampler selects the algorithm for the non-Morton sampling path:
	// exact FPS (default; through the graph's spatial index), bucketed
	// pruned FPS, or pure index stride. When the module's Morton strategy
	// applies, it wins over this knob. Bucketed FPS's picks depend on the
	// parent level's order as it stands — its stride seeds are positions in
	// it — but they are computed through the spatial index too.
	Sampler sample.Arch
	// Quality is the BucketFPS Frac knob (ignored by the other archs).
	Quality float64

	cache saCache
	// centersBuf backs the sampled-center slice across frames; the level
	// handed to the next module aliases it, which is safe because levels live
	// at most one frame (training's cached levels never read pts in backward).
	centersBuf []geom.Point3
	// selBuf is the sampled-index buffer of both FPS paths, reused across
	// frames for a zero-allocation steady state (the level that aliases it
	// lives one frame).
	selBuf []int
}

type saCache struct {
	parentRows, parentCols int
	nbr                    []int
	argmax                 []int32
	k                      int
}

// errListNotComputed is a reuse cache asking for a search that
// ReuseCache.WillCompute said it would not ask for.
var errListNotComputed = errors.New("model: reuse searched a layer whose list was not computed")

func clampK(k, n int) int {
	if k > n {
		return n
	}
	return k
}

// forward consumes the parent level and fills next with the sampled level.
// Execution context (trace, train flag, workspace or training arena, reuse
// cache) comes from the Graph's Exec; train and x.ws != nil are mutually
// exclusive.
//
//edgepc:hotpath
func (m *SAModule) forward(parent, next *level, layer int, x *Exec) error {
	trace, train, ws := x.trace, x.train, x.ws
	n := parent.len()
	nOut := int(float64(float64(n)*m.Frac) + 0.5)
	if nOut < 1 {
		nOut = 1
	}
	if nOut > n {
		nOut = n
	}
	k := clampK(m.K, n)

	// --- Sample stage, and the exact neighbor search streamed beside it ---
	useMorton := m.Strat.MortonSample && parent.mortonSorted
	window := m.Strat.MortonWindow && parent.mortonSorted && useMorton
	// Reuse projects cached lists through the sampling map when it is
	// ascending; otherwise a reusing layer searches like a computing one.
	var adapt func(core.ReuseEntry) ([]int, error)
	var sel []int
	if x.reuseOn && parent.posInParent != nil && isAscending(parent.posInParent) {
		adapt = func(prev core.ReuseEntry) ([]int, error) {
			return core.ProjectNeighbors(prev, sel, parent.posInParent, k)
		}
	}
	// onIndex is whether this layer's list is computed on the spatial
	// index: then the index searches every pick while the sampler makes the
	// next.
	onIndex := !window && (!x.reuseOn || x.reuse.WillCompute(layer, layer, adapt != nil))
	arch, sampleAlgo := m.Sampler, m.Sampler.String()
	if useMorton {
		// The level is already Morton-sorted (the encode+sort cost is the
		// pipeline's one-time StageStructurize record), so sampling is a
		// pure index-stride pick.
		arch, sampleAlgo = sample.ArchStride, "morton-pick"
	}
	var nbr []int
	var dur, tail time.Duration
	var err error
	if arch == sample.ArchStride && !onIndex {
		start := time.Now()
		sel = core.SamplePositions(n, nOut)
		dur = time.Since(start)
	} else {
		// Exact FPS's picks, or bucketed pruned FPS's at the module's
		// quality — the picks of sample.BucketFPS over the level as it
		// stands — computed through the spatial index, whose order prunes
		// better.
		var q spatial.Search
		if onIndex {
			q = spatial.Search{K: k, R: m.Radius}
		}
		start := time.Now()
		sel, nbr, dur, err = x.exact(parent).SampleSearch(arch, m.Quality, nOut, q, m.selBuf)
		tail = time.Since(start) - dur
		m.selBuf = sel
	}
	if err != nil {
		return fmt.Errorf("model: SA%d sample: %w", layer, err)
	}
	trace.Add(StageRecord{Stage: StageSample, Layer: layer, Algo: sampleAlgo, N: n, Q: nOut, Dur: dur})

	if cap(m.centersBuf) < nOut {
		//edgepc:lint-ignore hotpathalloc cap-guarded grow; steady-state frames reuse the buffer
		m.centersBuf = make([]geom.Point3, nOut)
	}
	centers := m.centersBuf[:nOut]
	for i, s := range sel {
		centers[i] = parent.pts[s]
	}

	// --- Neighbor search stage (or cross-layer reuse, §5.2.3 generalized) ---
	// A list on the index is already computed; its record is the search the
	// sampler did not hide. The labels name what is computed — the brute
	// searchers' results, index for index — and are what edgesim prices.
	nsAlgo := "knn-brute"
	if m.Radius > 0 {
		nsAlgo = "ball-query"
	}
	w := 0
	if window {
		nsAlgo, w = "morton-window", max(m.Strat.WindowW, k)
	}
	search := func() ([]int, error) {
		if window {
			return core.WindowSearcher{W: m.Strat.WindowW}.SearchPositions(parent.pts, sel, k)
		}
		if nbr == nil {
			return nil, errListNotComputed
		}
		return nbr, nil
	}
	reused := false
	dur, err = timed(func() error {
		if !x.reuseOn {
			var e error
			nbr, e = search()
			return e
		}
		var computed bool
		var e error
		nbr, computed, e = x.reuse.ForLayerIn(layer, k, layer, adapt, search)
		if e == nil && !computed {
			nsAlgo, w, reused = "reuse", 0, true
		}
		return e
	})
	if err != nil {
		return fmt.Errorf("model: SA%d neighbor: %w", layer, err)
	}
	trace.Add(StageRecord{Stage: StageNeighbor, Layer: layer, Algo: nsAlgo, N: n, Q: nOut, K: k, W: w, Reused: reused, Dur: tail + dur})

	// --- Group stage ---
	var grouped *tensor.Matrix
	dur, err = timed(func() error {
		var e error
		grouped, e = buildGroupedSA(x.scratch(), parent.pts, parent.feats, centers, nbr, k)
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
		m.cache = saCache{parentRows: n, parentCols: parent.feats.Cols, nbr: nbr, argmax: argmax, k: k}
	}
	next.pts = centers
	next.feats = feats
	next.mortonSorted = parent.mortonSorted && useMorton
	next.posInParent = sel
	return nil
}

// backward routes the gradient of this module's output features back to the
// parent level's features, every buffer from the training arena a; grad is
// consumed.
func (m *SAModule) backward(a *tensor.Workspace, grad *tensor.Matrix) (*tensor.Matrix, error) {
	c := &m.cache
	if c.nbr == nil {
		return nil, fmt.Errorf("model: SA backward before forward(train)")
	}
	g := wsGet(a, grad.Rows*c.k, grad.Cols)
	if err := tensor.MaxPoolBackwardInto(g, grad, c.argmax, c.k); err != nil {
		return nil, err
	}
	wsPut(a, grad)
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
// and run a shared MLP.
type FPModule struct {
	MLP   *nn.Sequential
	Strat ModuleStrategy

	cache fpCache
}

type fpCache struct {
	plan       *sample.InterpPlan
	coarseRows int
	interpCols int
	skipCols   int
}

// forward interpolates coarseFeats (features at the coarse level) onto the
// fine level and fuses them with the fine level's own features. Execution
// context (trace, train flag, workspace or training arena) comes from the
// Graph's Exec, the same contract as SAModule.forward.
//
//edgepc:hotpath
func (m *FPModule) forward(fine, coarse *level, coarseFeats *tensor.Matrix, layer int, x *Exec) (*tensor.Matrix, error) {
	trace, train, ws := x.trace, x.train, x.ws
	// --- Interpolation planning (the up-sampling stage of Fig. 9) ---
	var plan *sample.InterpPlan
	var algo string
	useMorton := m.Strat.MortonInterp && fine.mortonSorted && coarse.posInParent != nil && isAscending(coarse.posInParent)
	dur, err := timed(func() error {
		var e error
		if useMorton {
			algo = "morton-interp"
			plan, e = core.MortonInterp{}.PlanStructurized(fine.pts, coarse.posInParent)
		} else {
			algo = "three-nn"
			plan, e = x.exact(coarse).ThreeNN(fine.pts)
		}
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("model: FP%d interp plan: %w", layer, err)
	}
	trace.Add(StageRecord{Stage: StageInterp, Layer: layer, Algo: algo, N: fine.len(), Q: coarse.len(), K: plan.K, Dur: dur})

	// --- Apply + concat + MLP (feature compute) ---
	var out *tensor.Matrix
	interpCols := coarseFeats.Cols
	var cin int
	dur, err = timed(func() error {
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
// training arena a; grad is consumed.
func (m *FPModule) backward(a *tensor.Workspace, grad *tensor.Matrix) (*tensor.Matrix, *tensor.Matrix, error) {
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
	gSkip := wsGet(a, g.Rows, c.skipCols)
	for r := 0; r < g.Rows; r++ {
		copy(gSkip.Row(r), g.Row(r)[c.interpCols:])
	}
	// Adjoint of ApplyPlan: dCoarse[src] += w · dInterp[target].
	gCoarse := wsGet(a, c.coarseRows, c.interpCols)
	gCoarse.Zero()
	k := c.plan.K
	for t := 0; t < g.Rows; t++ {
		row := g.Row(t)[:c.interpCols]
		for j := 0; j < k; j++ {
			s := c.plan.Indexes[t*k+j]
			w := float32(c.plan.Weights[t*k+j])
			dst := gCoarse.Row(s)
			for col, v := range row {
				dst[col] += float32(w * v)
			}
		}
	}
	wsPut(a, g)
	return gSkip, gCoarse, nil
}

func isAscending(a []int) bool {
	for i := 1; i < len(a); i++ {
		if a[i-1] >= a[i] {
			return false
		}
	}
	return true
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
	Radius     float64 // base ball-query radius (doubles per level); 0 → kNN baseline
	// SampleArch selects the sampler for SA modules whose Morton strategy
	// does not apply: exact FPS (default), bucketed pruned FPS, or stride
	// (see SAModule.Sampler).
	SampleArch sample.Arch
	// SampleQuality is the BucketFPS quality knob in [0,1]; 0 defaults to 1
	// (exact picks, pruning as pure speedup).
	SampleQuality float64
	// ExtraFeatDim is the width of per-point input features beyond the
	// coordinates (e.g. 3 for RGB in S3DIS); input clouds must carry
	// exactly this FeatDim.
	ExtraFeatDim int
	// SAStrategies[i] configures SA module i; FPStrategies[i] configures FP
	// module i in execution order (i = Depth−1 is the last FP, the one
	// producing full resolution — the paper's optimized layer).
	SAStrategies []ModuleStrategy
	FPStrategies []ModuleStrategy
	Structurize  *core.StructurizeOptions
	// Reuse carries neighbor indexes across consecutive SA modules (§5.2.3
	// generalized to PointNet++): a reused layer skips its own search and
	// projects the previous module's indexes through the sampling map. The
	// zero policy (distance 0) recomputes every layer.
	Reuse core.ReusePolicy
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
	if c.SAStrategies == nil {
		c.SAStrategies = make([]ModuleStrategy, c.Depth)
	}
	if c.FPStrategies == nil {
		c.FPStrategies = make([]ModuleStrategy, c.Depth)
	}
}

func (c *PPConfig) validate() error {
	if c.Classes < 2 {
		return fmt.Errorf("model: need ≥2 classes, got %d", c.Classes)
	}
	if len(c.SAStrategies) != c.Depth || len(c.FPStrategies) != c.Depth {
		return fmt.Errorf("model: strategies must match depth %d", c.Depth)
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
		radius := 0.0
		if cfg.Radius > 0 {
			radius = cfg.Radius * float64(int(1)<<(l-1))
		}
		net.SA = append(net.SA, &SAModule{
			Frac:    cfg.SampleFrac,
			K:       cfg.K,
			Radius:  radius,
			MLP:     nn.NewSharedMLP(fmt.Sprintf("sa%d", l), []int{3 + inC, w, w}, rng),
			Strat:   cfg.SAStrategies[l-1],
			Sampler: cfg.SampleArch,
			Quality: cfg.SampleQuality,
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
			MLP:   nn.NewSharedMLP(fmt.Sprintf("fp%d", i), []int{coarseC + skipC, outC}, rng),
			Strat: cfg.FPStrategies[i],
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
		Reuse:        cfg.Reuse,
	})
	if err != nil {
		return nil, err
	}
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
