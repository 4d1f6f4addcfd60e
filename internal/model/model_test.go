package model

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/nn"
	"repro/internal/tensor"
)

func testCloud(n int, seed int64) *geom.Cloud {
	c := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: n, DensitySkew: 0.5, Seed: seed})
	c.Labels = make([]int32, n)
	for i := range c.Labels {
		if c.Points[i].Z > 0 {
			c.Labels[i] = 1
		}
	}
	return c
}

func tinyPPConfig(morton bool) PPConfig {
	cfg := PPConfig{
		Classes:    3,
		Depth:      2,
		BaseWidth:  4,
		K:          4,
		SampleFrac: 0.5,
		Dropout:    -1,
		Seed:       1,
	}
	if morton {
		cfg.MortonLayers = 1
		cfg.WindowW = 8
		cfg.Structurize = &core.StructurizeOptions{}
	}
	return cfg
}

func TestPointNetPPForwardShapes(t *testing.T) {
	for _, morton := range []bool{false, true} {
		net, err := NewPointNetPP(tinyPPConfig(morton))
		if err != nil {
			t.Fatal(err)
		}
		cloud := testCloud(64, 2)
		trace := &Trace{}
		out, err := net.Forward(cloud, trace, false)
		if err != nil {
			t.Fatalf("morton=%v: %v", morton, err)
		}
		if out.Logits.Rows != 64 || out.Logits.Cols != 3 {
			t.Fatalf("logits %dx%d", out.Logits.Rows, out.Logits.Cols)
		}
		if len(out.Labels) != 64 {
			t.Fatalf("labels %d", len(out.Labels))
		}
		if morton && out.Perm == nil {
			t.Fatal("morton run must return the permutation")
		}
		if !morton && out.Perm != nil {
			t.Fatal("baseline run must not permute")
		}
		// Trace must contain the expected stages.
		byStage := map[StageKind]int{}
		for _, r := range trace.Records {
			byStage[r.Stage]++
		}
		if byStage[StageSample] != 2 || byStage[StageNeighbor] != 2 || byStage[StageInterp] != 2 {
			t.Fatalf("morton=%v: stage counts %v", morton, byStage)
		}
		if morton && byStage[StageStructurize] != 1 {
			t.Fatalf("missing structurize record: %v", byStage)
		}
	}
}

func TestPointNetPPStrategiesRecorded(t *testing.T) {
	net, err := NewPointNetPP(tinyPPConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	if _, err := net.Forward(testCloud(64, 3), trace, false); err != nil {
		t.Fatal(err)
	}
	var sampleAlgos, nsAlgos, interpAlgos []string
	for _, r := range trace.Records {
		switch r.Stage {
		case StageSample:
			sampleAlgos = append(sampleAlgos, r.Algo)
		case StageNeighbor:
			nsAlgos = append(nsAlgos, r.Algo)
		case StageInterp:
			interpAlgos = append(interpAlgos, r.Algo)
		}
	}
	if sampleAlgos[0] != "morton-pick" || sampleAlgos[1] != "fps" {
		t.Fatalf("sample algos = %v", sampleAlgos)
	}
	if nsAlgos[0] != "morton-window" || nsAlgos[1] == "morton-window" {
		t.Fatalf("neighbor algos = %v", nsAlgos)
	}
	// FP execution order: index 0 = deepest (three-nn), index 1 = last
	// (morton-interp, the optimized one).
	if interpAlgos[0] != "three-nn" || interpAlgos[1] != "morton-interp" {
		t.Fatalf("interp algos = %v", interpAlgos)
	}
}

func TestPointNetPPDeterministic(t *testing.T) {
	net, err := NewPointNetPP(tinyPPConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(48, 4)
	a, err := net.Forward(cloud, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := net.Forward(cloud, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Logits.Equal(b.Logits) {
		t.Fatal("inference not deterministic")
	}
}

// gradCosine runs a full-network numeric-vs-analytic gradient comparison and
// returns the cosine similarity over a parameter sample.
func gradCosine(t *testing.T, net interface {
	Forward(*geom.Cloud, *Trace, bool) (*Output, error)
	Backward(*tensor.Matrix) error
	Params() []*nn.Param
}, cloud *geom.Cloud, labels func(*Output) []int32) float64 {
	t.Helper()
	loss := func() float64 {
		out, err := net.Forward(cloud, nil, true)
		if err != nil {
			t.Fatal(err)
		}
		l, _, err := nn.CrossEntropy(out.Logits, labels(out))
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	params := net.Params()
	nn.ZeroGrads(params)
	out, err := net.Forward(cloud, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	_, grad, err := nn.CrossEntropy(out.Logits, labels(out))
	if err != nil {
		t.Fatal(err)
	}
	if err := net.Backward(grad); err != nil {
		t.Fatal(err)
	}
	var dot, na, nb float64
	rng := rand.New(rand.NewSource(9))
	for _, p := range params {
		analytic := append([]float32(nil), p.Grad.Data...)
		for i := 0; i < len(p.Value.Data); i++ {
			if rng.Float64() > 0.15 { // sample ~15% of weights
				continue
			}
			orig := p.Value.Data[i]
			const eps = 1e-2
			p.Value.Data[i] = orig + eps
			up := loss()
			p.Value.Data[i] = orig - eps
			down := loss()
			p.Value.Data[i] = orig
			num := (up - down) / (2 * eps)
			a := float64(analytic[i])
			dot += a * num
			na += a * a
			nb += num * num
		}
	}
	if na == 0 || nb == 0 {
		t.Fatal("gradient check degenerate (all-zero gradients)")
	}
	return dot / math.Sqrt(na*nb)
}

func TestPointNetPPGradientCheck(t *testing.T) {
	for _, morton := range []bool{false, true} {
		cfg := tinyPPConfig(morton)
		cfg.BaseWidth = 3
		net, err := NewPointNetPP(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cloud := testCloud(24, 5)
		cos := gradCosine(t, net, cloud, func(o *Output) []int32 { return o.Labels })
		if cos < 0.90 {
			t.Fatalf("morton=%v: gradient cosine %v < 0.90", morton, cos)
		}
	}
}

func tinyDGCNNConfig(morton bool, task Task) DGCNNConfig {
	cfg := DGCNNConfig{
		Classes:   3,
		Modules:   3,
		BaseWidth: 4,
		K:         4,
		Task:      task,
		Dropout:   -1,
		Seed:      2,
	}
	if morton {
		cfg.MortonLayers = 1
		cfg.WindowW = 8
		cfg.Reuse = core.ReusePolicy{Distance: 1}
		cfg.Structurize = &core.StructurizeOptions{}
	}
	return cfg
}

func TestDGCNNForwardShapes(t *testing.T) {
	for _, task := range []Task{TaskClassification, TaskSegmentation} {
		for _, morton := range []bool{false, true} {
			net, err := NewDGCNN(tinyDGCNNConfig(morton, task))
			if err != nil {
				t.Fatal(err)
			}
			cloud := testCloud(40, 6)
			trace := &Trace{}
			out, err := net.Forward(cloud, trace, false)
			if err != nil {
				t.Fatalf("task=%v morton=%v: %v", task, morton, err)
			}
			wantRows := 40
			if task == TaskClassification {
				wantRows = 1
			}
			if out.Logits.Rows != wantRows || out.Logits.Cols != 3 {
				t.Fatalf("logits %dx%d, want %dx3", out.Logits.Rows, out.Logits.Cols, wantRows)
			}
		}
	}
}

func TestDGCNNReuseSkipsSearch(t *testing.T) {
	net, err := NewDGCNN(tinyDGCNNConfig(true, TaskSegmentation))
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	if _, err := net.Forward(testCloud(40, 7), trace, false); err != nil {
		t.Fatal(err)
	}
	var algos []string
	var reused []bool
	for _, r := range trace.Records {
		if r.Stage == StageNeighbor {
			algos = append(algos, r.Algo)
			reused = append(reused, r.Reused)
		}
	}
	// Distance-1 reuse over 3 modules: compute, reuse, compute.
	if len(algos) != 3 {
		t.Fatalf("neighbor records = %v", algos)
	}
	if algos[0] != "morton-window" || !reused[1] || algos[1] != "reuse" || reused[2] {
		t.Fatalf("reuse pattern wrong: algos=%v reused=%v", algos, reused)
	}
	if algos[2] != "knn-feature" {
		t.Fatalf("layer 2 should recompute in feature space, got %q", algos[2])
	}
}

func TestDGCNNBaselineUsesCoordKNNFirst(t *testing.T) {
	net, err := NewDGCNN(tinyDGCNNConfig(false, TaskSegmentation))
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	if _, err := net.Forward(testCloud(40, 8), trace, false); err != nil {
		t.Fatal(err)
	}
	var algos []string
	for _, r := range trace.Records {
		if r.Stage == StageNeighbor {
			algos = append(algos, r.Algo)
		}
	}
	if algos[0] != "knn-brute" || algos[1] != "knn-feature" || algos[2] != "knn-feature" {
		t.Fatalf("baseline neighbor algos = %v", algos)
	}
}

// The DGCNN gradient checks freeze the neighbor graph by reusing layer 0's
// indexes everywhere (Reuse.Distance ≫ modules): deeper layers' feature-space
// kNN graphs are parameter-dependent and *non-differentiable* — perturbing a
// weight can flip an edge and jump the loss, which corrupts finite
// differences while the analytic per-edge gradients remain correct (verified
// layer-by-layer: layers downstream of the last graph construction match
// numerics to cosine 1.000).

func TestDGCNNGradientCheckSegmentation(t *testing.T) {
	cfg := tinyDGCNNConfig(false, TaskSegmentation)
	cfg.BaseWidth = 3
	cfg.Reuse = core.ReusePolicy{Distance: 10}
	net, err := NewDGCNN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(20, 9)
	cos := gradCosine(t, net, cloud, func(o *Output) []int32 { return o.Labels })
	if cos < 0.90 {
		t.Fatalf("gradient cosine %v < 0.90", cos)
	}
}

func TestDGCNNGradientCheckClassification(t *testing.T) {
	cfg := tinyDGCNNConfig(true, TaskClassification)
	cfg.BaseWidth = 3
	cfg.Reuse = core.ReusePolicy{Distance: 10}
	net, err := NewDGCNN(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(20, 10)
	cos := gradCosine(t, net, cloud, func(o *Output) []int32 { return []int32{1} })
	if cos < 0.90 {
		t.Fatalf("gradient cosine %v < 0.90", cos)
	}
}

func TestModelErrors(t *testing.T) {
	if _, err := NewPointNetPP(PPConfig{Classes: 1}); err == nil {
		t.Fatal("1 class: want error")
	}
	if _, err := NewDGCNN(DGCNNConfig{Classes: 0}); err == nil {
		t.Fatal("0 classes: want error")
	}
	net, err := NewPointNetPP(tinyPPConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Forward(geom.NewCloud(0, 0), nil, false); err == nil {
		t.Fatal("empty cloud: want error")
	}
	if err := net.Backward(tensor.New(1, 3)); err == nil {
		t.Fatal("backward before forward: want error")
	}
}

func TestTraceHelpers(t *testing.T) {
	var tr *Trace
	tr.Add(StageRecord{}) // nil-safe
	tr2 := &Trace{}
	tr2.Add(StageRecord{Stage: StageSample, Dur: 5})
	tr2.Add(StageRecord{Stage: StageSample, Dur: 7})
	tr2.Add(StageRecord{Stage: StageFeature, Dur: 1})
	byStage := tr2.DurByStage()
	if byStage[StageSample] != 12 || byStage[StageFeature] != 1 {
		t.Fatalf("DurByStage = %v", byStage)
	}
	tr2.Reset()
	if len(tr2.Records) != 0 {
		t.Fatal("reset failed")
	}
	if StageSample.String() != "sample" || StageStructurize.String() != "structurize" {
		t.Fatal("stage names wrong")
	}
	if StageKind(99).String() != "unknown" {
		t.Fatal("unknown stage name")
	}
}

func TestFeatKNNMatchesBrute(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	feats := tensor.New(30, 5)
	for i := range feats.Data {
		feats.Data[i] = float32(rng.NormFloat64())
	}
	k := 4
	got := featKNN(nil, feats, k)
	// Naive reference.
	for i := 0; i < 30; i++ {
		type cand struct {
			j int
			d float64
		}
		var all []cand
		for j := 0; j < 30; j++ {
			var d float64
			for c := 0; c < 5; c++ {
				dv := float64(feats.At(i, c) - feats.At(j, c))
				d += dv * dv
			}
			all = append(all, cand{j, d})
		}
		for a := 0; a < k; a++ {
			best := a
			for b := a + 1; b < len(all); b++ {
				if all[b].d < all[best].d {
					best = b
				}
			}
			all[a], all[best] = all[best], all[a]
			if math.Abs(all[a].d-distOf(feats, i, got[i*k+a])) > 1e-9 {
				t.Fatalf("featKNN point %d slot %d: dist %v vs %v", i, a, distOf(feats, i, got[i*k+a]), all[a].d)
			}
		}
	}
}

func distOf(feats *tensor.Matrix, i, j int) float64 {
	var d float64
	for c := 0; c < feats.Cols; c++ {
		dv := float64(feats.At(i, c) - feats.At(j, c))
		d += dv * dv
	}
	return d
}

func TestSampledSubsetStaysMortonSorted(t *testing.T) {
	// The level produced by a Morton SA module must itself be flagged
	// Morton-sorted (uniform stride of a sorted sequence is sorted).
	cfg := tinyPPConfig(true)
	cfg.MortonLayers = 2
	cfg.WindowW = 0
	net, err := NewPointNetPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	if _, err := net.Forward(testCloud(64, 12), trace, false); err != nil {
		t.Fatal(err)
	}
	count := 0
	for _, r := range trace.Records {
		if r.Stage == StageSample && r.Algo == "morton-pick" {
			count++
		}
	}
	if count != 2 {
		t.Fatalf("expected both SA modules to use morton sampling, got %d", count)
	}
}
