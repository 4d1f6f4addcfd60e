package model

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/tensor"
)

// EdgeConvModule is DGCNN's basic block (Fig. 2b): build a k-NN graph, form
// edge features [f_i | f_j − f_i], run a shared MLP and max-pool over the k
// edges of each point. The point count never changes (no sampling stage).
//
// The first module measures neighbor distance in coordinate space (where the
// Morton window approximation applies); deeper modules measure it in feature
// space, where the paper instead *reuses* earlier indexes per ReusePolicy.
type EdgeConvModule struct {
	K     int
	MLP   *nn.Sequential
	Strat ModuleStrategy

	cache ecCache
}

type ecCache struct {
	nbr     []int
	argmax  []int32
	k, n, c int
}

// forward runs one EdgeConv block over lv and fills next with the result
// level. Execution context (trace, train flag, workspace or training arena,
// reuse cache) comes from the Graph's Exec; train and x.ws != nil are
// mutually exclusive.
//
//edgepc:hotpath
func (m *EdgeConvModule) forward(lv, next *level, layer int, x *Exec) error {
	reuse, trace, train, wksp, buf := x.reuse, x.trace, x.train, x.ws, x.scratch()
	n := lv.len()
	k := clampK(m.K, n)

	// --- Neighbor search (or reuse) ---
	var nbr []int
	var computed bool
	var algo string
	w := 0
	dur, err := timed(func() error {
		var e error
		nbr, computed, e = reuse.ForLayer(layer, k, func() ([]int, error) {
			if m.Strat.MortonWindow && lv.mortonSorted && layer == 0 {
				algo = "morton-window"
				searcher := core.WindowSearcher{W: m.Strat.WindowW}
				w = m.Strat.WindowW
				if w < k {
					w = k
				}
				return searcher.SearchAll(lv.pts, k)
			}
			if layer == 0 {
				algo = "knn-brute"
				coords := coordMatrix(buf, lv.pts)
				idx := featKNN(buf, coords, k)
				wsPut(buf, coords)
				return idx, nil
			}
			algo = "knn-feature"
			return featKNN(buf, lv.feats, k), nil
		})
		return e
	})
	if err != nil {
		return fmt.Errorf("model: EC%d neighbor: %w", layer, err)
	}
	if !computed {
		algo = "reuse"
	}
	trace.Add(StageRecord{
		Stage: StageNeighbor, Layer: layer, Algo: algo,
		N: n, Q: n, K: k, W: w, CIn: lv.feats.Cols, Reused: !computed, Dur: dur,
	})

	// --- Group ---
	var grouped *tensor.Matrix
	dur, err = timed(func() error {
		var e error
		grouped, e = buildGroupedEdge(buf, lv.feats, nbr, k)
		return e
	})
	if err != nil {
		return fmt.Errorf("model: EC%d group: %w", layer, err)
	}
	trace.Add(StageRecord{Stage: StageGroup, Layer: layer, Algo: "gather", N: n, Q: n, K: k, CIn: grouped.Cols, Dur: dur})

	// --- Feature compute ---
	var feats *tensor.Matrix
	var argmax []int32
	cin := grouped.Cols
	dur, err = timed(func() error {
		if wksp != nil {
			// The pool rides in the MLP's last pass: only the (Q × C) result
			// is written, and the grouped matrix is dead once consumed.
			var e error
			feats, e = m.MLP.ForwardPooled(grouped, k)
			wsPut(wksp, grouped)
			return e
		}
		// Training: the pool keeps its argmax for backward.
		y, e := m.MLP.Forward(grouped, train)
		if e != nil {
			return e
		}
		feats = wsGet(buf, n, y.Cols)
		argmax = wsGet(buf, n, y.Cols).Int32s()
		return tensor.MaxPoolGroupsInto(feats, argmax, y, k)
	})
	if err != nil {
		return fmt.Errorf("model: EC%d feature: %w", layer, err)
	}
	trace.Add(StageRecord{Stage: StageFeature, Layer: layer, Algo: "shared-mlp", Q: n * k, CIn: cin, COut: feats.Cols, Dur: dur})

	if train {
		m.cache = ecCache{nbr: nbr, argmax: argmax, k: k, n: n, c: lv.feats.Cols}
	}
	next.pts = lv.pts
	next.feats = feats
	next.mortonSorted = lv.mortonSorted
	return nil
}

// backward routes the gradient of this module's output features back to the
// input level's, every buffer from the training arena a; grad is consumed.
func (m *EdgeConvModule) backward(a *tensor.Workspace, grad *tensor.Matrix) (*tensor.Matrix, error) {
	c := &m.cache
	if c.nbr == nil {
		return nil, fmt.Errorf("model: EC backward before forward(train)")
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
	d, err := groupedEdgeBackward(a, g, c.nbr, c.n, c.c)
	wsPut(a, g)
	return d, err
}

// Task selects the DGCNN head.
type Task int

// DGCNN task heads. Classification pools globally; Segmentation emits
// per-point logits (used for both part and semantic segmentation).
const (
	TaskClassification Task = iota
	TaskSegmentation
)

// DGCNN is the EdgeConv network of Fig. 2b with per-layer strategy selection
// and the paper's neighbor-index reuse across modules, compiled into a stage
// Graph (see graph.go) that owns the shared executor machinery.
//
// Concurrency: see Graph — eval-mode weight-sharing replicas may run
// concurrently, one per goroutine; training must own the weights.
type DGCNN struct {
	EC          []*EdgeConvModule
	Embed       *nn.Sequential // fuses the concatenated EC outputs
	Head        *nn.Sequential
	Task        Task
	Reuse       core.ReusePolicy
	Structurize *core.StructurizeOptions

	graph *Graph
}

// DGCNNConfig describes a DGCNN instance.
type DGCNNConfig struct {
	Classes    int
	Modules    int // number of EdgeConv modules; default 3 (paper's DGCNN(s)); 4 for the reuse demo
	BaseWidth  int // EC output width (constant across modules); default 16
	K          int // neighbors; default 8 (paper uses 20 at full scale)
	EmbedWidth int // fused embedding width; default 4×BaseWidth
	// ExtraFeatDim is the width of per-point input features beyond the
	// coordinates; input clouds must carry exactly this FeatDim.
	ExtraFeatDim int
	Strategies   []ModuleStrategy
	Reuse        core.ReusePolicy
	Task         Task
	Structurize  *core.StructurizeOptions
	// Dropout is the head dropout probability; 0 selects the default (0.3),
	// a negative value disables dropout (useful for gradient checking).
	Dropout float64
	Seed    int64
}

func (c *DGCNNConfig) defaults() {
	if c.Modules == 0 {
		c.Modules = 3
	}
	if c.BaseWidth == 0 {
		c.BaseWidth = 16
	}
	if c.K == 0 {
		c.K = 8
	}
	if c.EmbedWidth == 0 {
		c.EmbedWidth = 4 * c.BaseWidth
	}
	if c.Strategies == nil {
		c.Strategies = make([]ModuleStrategy, c.Modules)
	}
}

// NewDGCNN constructs the network.
func NewDGCNN(cfg DGCNNConfig) (*DGCNN, error) {
	cfg.defaults()
	if cfg.Classes < 2 {
		return nil, fmt.Errorf("model: need ≥2 classes, got %d", cfg.Classes)
	}
	if len(cfg.Strategies) != cfg.Modules {
		return nil, fmt.Errorf("model: %d strategies for %d modules", len(cfg.Strategies), cfg.Modules)
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 3))
	net := &DGCNN{Task: cfg.Task, Reuse: cfg.Reuse, Structurize: cfg.Structurize}
	inC := 3 + cfg.ExtraFeatDim
	for l := 0; l < cfg.Modules; l++ {
		net.EC = append(net.EC, &EdgeConvModule{
			K:     cfg.K,
			MLP:   nn.NewSharedMLP(fmt.Sprintf("ec%d", l), []int{2 * inC, cfg.BaseWidth, cfg.BaseWidth}, rng),
			Strat: cfg.Strategies[l],
		})
		inC = cfg.BaseWidth
	}
	concatC := cfg.Modules * cfg.BaseWidth
	net.Embed = nn.NewSharedMLP("embed", []int{concatC, cfg.EmbedWidth}, rng)
	// The classification head sees a single globally pooled row per cloud
	// (this implementation processes clouds one at a time), so BatchNorm —
	// which normalizes over rows — would be degenerate there; it stays in
	// the segmentation head, where rows are points.
	headLayers := []nn.Layer{
		nn.NewLinear("head.0", cfg.EmbedWidth, cfg.EmbedWidth/2, rng),
	}
	if cfg.Task == TaskSegmentation {
		headLayers = append(headLayers, nn.NewBatchNorm("head.0.bn", cfg.EmbedWidth/2))
	}
	headLayers = append(headLayers,
		&nn.ReLU{},
		&nn.Dropout{P: dropoutP(cfg.Dropout), Rng: rand.New(rand.NewSource(cfg.Seed + 4))},
		nn.NewLinear("head.1", cfg.EmbedWidth/2, cfg.Classes, rng),
	)
	net.Head = nn.NewSequential(headLayers...)
	// Declarative stage list: EC chain, skip fusion, embedding, (global pool
	// for classification), head — compiled into the shared Graph executor.
	stages := make([]Stage, 0, cfg.Modules+4)
	for i, m := range net.EC {
		stages = append(stages, &ecStage{name: fmt.Sprintf("ec%d", i), idx: i, m: m})
	}
	stages = append(stages,
		&fuseStage{name: "fuse"},
		&mlpStage{name: "embed", mlp: net.Embed, record: true, traceLayer: cfg.Modules},
	)
	if cfg.Task == TaskClassification {
		stages = append(stages, &globalPoolStage{name: "pool"})
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
func (n *DGCNN) Params() []*nn.Param { return n.graph.Params() }

// Forward runs one cloud through the network. For classification the logits
// matrix has a single row; for segmentation one row per point. See
// Graph.Forward for the workspace contract.
func (n *DGCNN) Forward(cloud *geom.Cloud, trace *Trace, train bool) (*Output, error) {
	return n.graph.Forward(cloud, trace, train)
}

// Backward propagates the loss gradient through the network.
func (n *DGCNN) Backward(gradLogits *tensor.Matrix) error {
	return n.graph.Backward(gradLogits)
}
