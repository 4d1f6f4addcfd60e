// Package pipeline assembles the end-to-end PC inference pipelines the paper
// evaluates: the six workloads of Table 1, the three execution
// configurations (Baseline, S+N, S+N+F), and the edgesim pricing
// configuration (SimConfig) the experiment harness prices a frame's trace
// under.
package pipeline

import (
	"fmt"
	"strings"

	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/nn"
	"repro/internal/sample"
	"repro/internal/tensor"
)

// ConfigKind is the execution configuration axis of Fig. 12/13.
type ConfigKind int

// The paper's three configurations.
const (
	// Baseline: SOTA FPS + k-NN, feature compute on CUDA cores.
	Baseline ConfigKind = iota
	// SN applies the Morton approximations to the critical sample and
	// neighbor-search layers (step ② in Fig. 12).
	SN
	// SNF additionally deploys feature compute to tensor cores (step ③).
	SNF
)

var configNames = [...]string{"baseline", "S+N", "S+N+F"}

// String names the configuration.
func (c ConfigKind) String() string {
	if c < 0 || int(c) >= len(configNames) {
		return "unknown"
	}
	return configNames[c]
}

// ParseConfig reads a configuration name as the commands' -config flag takes
// it, in any case: "baseline", "S+N" or "SN", "S+N+F" or "SNF".
func ParseConfig(s string) (ConfigKind, error) {
	switch strings.ToLower(s) {
	case "baseline":
		return Baseline, nil
	case "s+n", "sn":
		return SN, nil
	case "s+n+f", "snf":
		return SNF, nil
	}
	return 0, fmt.Errorf("unknown config %q (want baseline, S+N or S+N+F)", s)
}

// Quick is the laptop-scale preset behind the commands' -quick flag: one
// 256-point cloud per frame and a narrow, shallow net (width 8, depth 2, two
// DGCNN modules), far below the paper's scale so a run completes in seconds.
func Quick(w Workload, opts Options) (Workload, Options) {
	w.Points, w.Batch = 256, 1
	opts.BaseWidth, opts.Depth, opts.Modules = 8, 2, 2
	return w, opts
}

// Arch selects the network architecture.
type Arch int

// Architectures of Fig. 2.
const (
	ArchPointNetPP Arch = iota
	ArchDGCNN
)

// Net is the common surface of the two architectures.
type Net interface {
	Forward(cloud *geom.Cloud, trace *model.Trace, train bool) (*model.Output, error)
	Backward(gradLogits *tensor.Matrix) error
	Params() []*nn.Param
}

// Workload is one row of Table 1.
type Workload struct {
	ID      string
	Model   string
	Dataset string
	Points  int // points per batch element
	Batch   int // batch size (W2/W6 use the ScanNet average of 14)
	Task    model.Task
	Arch    Arch
	Classes int
	K       int // neighbors per query
}

// Workloads reproduces Table 1. Batch sizes follow §6.2: S3DIS uses fixed
// batches of 32; ScanNet batches range 4–41 with an average of 14.
var Workloads = []Workload{
	{ID: "W1", Model: "PointNet++(s)", Dataset: "S3DIS", Points: 8192, Batch: 32, Task: model.TaskSegmentation, Arch: ArchPointNetPP, Classes: int(geom.NumSceneClasses), K: 8},
	{ID: "W2", Model: "PointNet++(s)", Dataset: "ScanNet", Points: 8192, Batch: 14, Task: model.TaskSegmentation, Arch: ArchPointNetPP, Classes: int(geom.NumSceneClasses), K: 8},
	{ID: "W3", Model: "DGCNN(c)", Dataset: "ModelNet40", Points: 1024, Batch: 32, Task: model.TaskClassification, Arch: ArchDGCNN, Classes: int(geom.NumShapeKinds), K: 8},
	{ID: "W4", Model: "DGCNN(p)", Dataset: "ShapeNet", Points: 2048, Batch: 32, Task: model.TaskSegmentation, Arch: ArchDGCNN, Classes: int(dataset.NumPartClasses), K: 8},
	{ID: "W5", Model: "DGCNN(s)", Dataset: "S3DIS", Points: 4096, Batch: 32, Task: model.TaskSegmentation, Arch: ArchDGCNN, Classes: int(geom.NumSceneClasses), K: 8},
	{ID: "W6", Model: "DGCNN(s)", Dataset: "ScanNet", Points: 8192, Batch: 14, Task: model.TaskSegmentation, Arch: ArchDGCNN, Classes: int(geom.NumSceneClasses), K: 8},
}

// WorkloadByID looks a workload up by its Table 1 id.
func WorkloadByID(id string) (Workload, error) {
	for _, w := range Workloads {
		if w.ID == id {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("pipeline: unknown workload %q", id)
}

// Options tunes model construction beyond the workload row.
type Options struct {
	BaseWidth int // network width; default 16 (laptop-scale substitute for the paper's 64+)
	Depth     int // PointNet++ SA/FP module count; default 4
	Modules   int // DGCNN EdgeConv module count; default 4 (shows reuse at distance 1)
	WindowW   int // Morton search window; default 2k
	// MortonLayers is how many leading modules get the Morton approximation
	// in the S+N configs (default 1, the paper's design point; Fig. 15b
	// sweeps it).
	MortonLayers  int
	ReuseDistance int // DGCNN reuse distance in S+N configs; default 1
	// SampleFrac is the per-module down-sampling ratio of the PointNet++ SA
	// chain (the sample budget); default 0.25, the PointNet++ convention.
	// Smaller fractions spend less compute per frame at some accuracy cost —
	// the knob serve's degradation rung halves (DegradeTiers).
	SampleFrac float64
	// SampleArch selects the sampler for PointNet++ SA modules that run a
	// real (non-Morton-stride) sampling stage: exact FPS (the default; its
	// picks come from the spatial index, see internal/spatial), bucketed
	// pruned FPS (sample.ArchBucketFPS), or pure stride. ArchBucketFPS
	// returns sample.BucketFPS's picks over the level as it stands, computed
	// through the spatial index as the default's are, so at quality 1 it
	// returns the default's picks at about the default's cost; what it adds
	// is the quality knob below 1, which the degradation rung uses.
	SampleArch sample.Arch
	// SampleQuality is the BucketFPS quality knob in [0,1]; 0 defaults to 1
	// (exact FPS picks with pruning as a pure speedup). Lower values trade
	// coverage for latency; serve's degradation rung samples at 0.5.
	SampleQuality float64
	TotalBits     int // Morton code width; default 32
	// ExtraFeatDim is the per-point input feature width beyond coordinates
	// (pair with datasets that attach features, e.g. scene intensity).
	ExtraFeatDim int
	Seed         int64
}

func (o *Options) defaults(w Workload) {
	if o.BaseWidth == 0 {
		o.BaseWidth = 16
	}
	if o.Depth == 0 {
		o.Depth = 4
	}
	if o.Modules == 0 {
		o.Modules = 4
	}
	if o.WindowW == 0 {
		o.WindowW = 2 * w.K
	}
	if o.MortonLayers == 0 {
		o.MortonLayers = 1
	}
	if o.ReuseDistance == 0 {
		o.ReuseDistance = 1
	}
	if o.SampleFrac == 0 {
		o.SampleFrac = 0.25
	}
	if o.SampleQuality == 0 {
		o.SampleQuality = 1
	}
	if o.TotalBits == 0 {
		o.TotalBits = 32
	}
}

// Frame generates one input cloud for a workload (deterministic in seed).
func Frame(w Workload, seed int64) (*geom.Cloud, error) {
	var s *dataset.Sample
	var err error
	switch w.Dataset {
	case "S3DIS":
		s, err = dataset.NewSceneSegmentation(1, w.Points, "s3dis", seed).At(0)
	case "ScanNet":
		s, err = dataset.NewSceneSegmentation(1, w.Points, "scannet", seed).At(0)
	case "ModelNet40":
		d := dataset.NewClassification(1, seed)
		d.Points = w.Points
		s, err = d.At(0)
	case "ShapeNet":
		d := dataset.NewPartSegmentation(1, seed)
		d.Points = w.Points
		s, err = d.At(0)
	default:
		return nil, fmt.Errorf("pipeline: unknown dataset %q", w.Dataset)
	}
	if err != nil {
		return nil, err
	}
	return s.Cloud, nil
}

// SimConfig derives the edgesim pricing configuration for a workload under a
// configuration kind.
func SimConfig(w Workload, kind ConfigKind, opts Options) edgesim.Config {
	opts.defaults(w)
	return edgesim.Config{
		Batch:       w.Batch,
		TensorCores: kind == SNF,
		Reuse:       kind != Baseline && w.Arch == ArchDGCNN && opts.ReuseDistance > 0,
	}
}

// RunInto is trace.Reset, net.Forward(cloud, trace, false) and
// dev.PriceTrace(trace, cfg) on the caller's kept Trace; a nil dev skips the
// pricing and returns a zero Report.
//
// Deprecated: bench/ is its only caller. A frame that wants logits calls
// trace.Reset and net.Forward (the serving engine does); an experiment that
// wants the Xavier price then calls dev.PriceTrace itself. ROADMAP item
// 2(b)/(c) moves bench/ off it and deletes it.
//
//edgepc:hotpath
func RunInto(net Net, cloud *geom.Cloud, trace *model.Trace, dev *edgesim.Device, cfg edgesim.Config) (edgesim.Report, *model.Output, error) {
	trace.Reset()
	out, err := net.Forward(cloud, trace, false)
	if err != nil {
		return edgesim.Report{}, nil, err
	}
	if dev == nil {
		return edgesim.Report{}, out, nil
	}
	return dev.PriceTrace(trace, cfg), out, nil
}
