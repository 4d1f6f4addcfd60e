// Package edgepc is the public API of this EdgePC reproduction — Morton-code
// structurization of point clouds and the two approximations it enables
// (index-stride sampling and index-window neighbor search), together with
// the SOTA baselines (farthest point sampling, ball query, k-NN), two
// point-cloud CNNs (PointNet++ and DGCNN) with per-layer
// strategy selection and retraining, and a Jetson-AGX-Xavier cost model that
// prices pipeline traces into latency and energy.
//
// Quickstart:
//
//	cloud := edgepc.GenerateShape(edgepc.ShapeBlob, edgepc.ShapeOptions{N: 10000, Seed: 1})
//	s, _ := edgepc.Structurize(cloud, edgepc.StructurizeOptions{})
//	samples, _ := edgepc.SampleMorton(cloud, 1024)               // ≈ FPS quality, a fraction of the cost
//	nbrs, _ := edgepc.WindowNeighbors(s, []int{0, 1, 2}, 8, 16)  // index-window search
//
// See the examples/ directory for end-to-end programs and cmd/edgepc-bench
// for the paper's full experiment suite.
package edgepc

import (
	"fmt"
	"math/rand"
	"os"
	"time"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/neighbor"
	"repro/internal/nn"
	"repro/internal/pipeline"
	"repro/internal/sample"
	"repro/internal/train"
)

// Geometry types.
type (
	// Point3 is a point in 3-D space.
	Point3 = geom.Point3
	// Cloud is a point cloud with optional per-point features and labels.
	Cloud = geom.Cloud
	// AABB is an axis-aligned bounding box.
	AABB = geom.AABB
	// ShapeKind enumerates the procedural shape families.
	ShapeKind = geom.ShapeKind
	// ShapeOptions controls procedural shape synthesis.
	ShapeOptions = geom.ShapeOptions
	// SceneOptions controls synthetic indoor-scene synthesis.
	SceneOptions = geom.SceneOptions
)

// Shape families usable with GenerateShape.
const (
	ShapeSphere   = geom.ShapeSphere
	ShapeTorus    = geom.ShapeTorus
	ShapeBox      = geom.ShapeBox
	ShapeCylinder = geom.ShapeCylinder
	ShapeCone     = geom.ShapeCone
	ShapePlane    = geom.ShapePlane
	ShapeHelix    = geom.ShapeHelix
	ShapeBlob     = geom.ShapeBlob
	ShapeCross    = geom.ShapeCross
	ShapeShell    = geom.ShapeShell
)

// NewCloud allocates a cloud of n points with featDim features per point.
func NewCloud(n, featDim int) *Cloud { return geom.NewCloud(n, featDim) }

// GenerateShape samples a procedural surface (see ShapeKind).
func GenerateShape(kind ShapeKind, opts ShapeOptions) *Cloud { return geom.GenerateShape(kind, opts) }

// GenerateScene synthesizes a labelled indoor scene (the S3DIS/ScanNet
// stand-in).
func GenerateScene(opts SceneOptions) *Cloud { return geom.GenerateScene(opts) }

// SyntheticBunny generates the 40 256-point organic model used by the
// sampling-quality experiments (the Stanford Bunny stand-in).
func SyntheticBunny(seed int64) *Cloud { return geom.SyntheticBunny(seed) }

// Structurization (the paper's §4).
type (
	// Structurized is a Morton-ordered cloud plus the bookkeeping for
	// index-based operations.
	Structurized = core.Structurized
	// StructurizeOptions configures the Morton pass (code width, grid size).
	StructurizeOptions = core.StructurizeOptions
)

// Structurize re-orders a copy of the cloud by Morton code.
func Structurize(c *Cloud, opts StructurizeOptions) (*Structurized, error) {
	return core.Structurize(c, opts)
}

// SampleFPS runs farthest point sampling (the SOTA baseline, O(nN)).
func SampleFPS(c *Cloud, n int) ([]int, error) {
	return sample.FPS{}.Sample(c, n)
}

// SampleMorton runs the paper's Algorithm 1: Morton encode + sort + uniform
// index stride. Returns original-cloud indexes.
func SampleMorton(c *Cloud, n int) ([]int, error) {
	return core.MortonSampler{}.Sample(c, n)
}

// SampleStructurized samples n points from an already-structurized cloud
// (pick-only, O(n)).
func SampleStructurized(s *Structurized, n int) ([]int, error) {
	return core.SampleStructurized(s, n)
}

// KNNNeighbors finds the k nearest candidates for every query by exhaustive
// search (flat query-major result).
func KNNNeighbors(points, queries []Point3, k int) ([]int, error) {
	return neighbor.BruteKNN{}.Search(points, queries, k)
}

// KNNNeighborsExcludingSelf finds, for each query given as an index into
// points, its k nearest *other* points — the exact reference when comparing
// against searchers that exclude the query itself (WindowNeighbors with
// w > k).
func KNNNeighborsExcludingSelf(points []Point3, queryIdx []int, k int) ([]int, error) {
	return neighbor.KNNExcludingSelf(points, queryIdx, k)
}

// BallNeighbors finds up to k candidates within radius r of every query
// (PointNet++ ball-query semantics, padded).
func BallNeighbors(points, queries []Point3, k int, r float64) ([]int, error) {
	return neighbor.BallQuery{R: r}.Search(points, queries, k)
}

// WindowNeighbors runs the EdgePC index-window search on a structurized
// cloud: queryPos are positions into s's order; w is the window size
// (w == k selects the pure index pick). Results index s.Cloud.Points.
func WindowNeighbors(s *Structurized, queryPos []int, k, w int) ([]int, error) {
	return core.WindowSearcher{W: w}.SearchPositions(s.Cloud.Points, queryPos, k)
}

// FalseNeighborRatio computes the paper's Fig. 6 metric between two flat
// q×k neighbor results.
func FalseNeighborRatio(approx, exact []int, k int) (float64, error) {
	return neighbor.FalseNeighborRatio(approx, exact, k)
}

// EstimateNormals computes PCA surface normals (smallest covariance
// eigenvector of each point's exact k-neighborhood), oriented away from the
// cloud centroid.
func EstimateNormals(points []Point3, k int) ([]Point3, error) {
	return neighbor.EstimateNormals(points, k)
}

// EstimateNormalsWindow computes PCA normals using the Morton index-window
// neighborhood — O(N·W) instead of O(N²), within a few degrees of the exact
// normals on smooth surfaces.
func EstimateNormalsWindow(s *Structurized, k, w int) ([]Point3, error) {
	return core.EstimateNormalsWindow(s, k, w)
}

// CoverageRadius reports the mean and max distance from every cloud point to
// its nearest sampled point (sampling quality, Fig. 5).
func CoverageRadius(cloud []Point3, sampled []int) (mean, max float64, err error) {
	return metrics.CoverageRadius(cloud, sampled)
}

// Pipelines and models.
type (
	// Workload is one row of the paper's Table 1.
	Workload = pipeline.Workload
	// ConfigKind selects Baseline, S+N or S+N+F execution.
	ConfigKind = pipeline.ConfigKind
	// Options tunes network construction (width, depth, window, layers).
	Options = pipeline.Options
	// Net is a point-cloud CNN with strategy-selectable stages.
	Net = pipeline.Net
	// Trace records every pipeline stage of a forward pass.
	Trace = model.Trace
	// Output bundles logits with the (possibly permuted) labels.
	Output = model.Output
	// Device is the edge-GPU cost model.
	Device = edgesim.Device
	// SimConfig prices a trace under a batch/tensor-core/reuse setting.
	SimConfig = edgesim.Config
	// Report is a priced trace: latency breakdown and energy.
	Report = edgesim.Report
)

// Execution configurations (Fig. 12/13).
const (
	Baseline = pipeline.Baseline
	SN       = pipeline.SN
	SNF      = pipeline.SNF
)

// Arch selects the network architecture of a Workload.
type Arch = pipeline.Arch

// Network architectures (Fig. 2).
const (
	ArchPointNetPP = pipeline.ArchPointNetPP
	ArchDGCNN      = pipeline.ArchDGCNN
)

// Tasks.
const (
	TaskClassification = model.TaskClassification
	TaskSegmentation   = model.TaskSegmentation
)

// Workloads lists the paper's Table 1 rows (W1–W6).
func Workloads() []Workload { return append([]Workload(nil), pipeline.Workloads...) }

// WorkloadByID looks up a Table 1 workload ("W1"…"W6").
func WorkloadByID(id string) (Workload, error) { return pipeline.WorkloadByID(id) }

// BuildNet constructs a PointNet++ or DGCNN for a workload under a
// configuration.
func BuildNet(w Workload, kind ConfigKind, opts Options) (Net, error) {
	return pipeline.Build(w, kind, opts)
}

// GenerateFrame produces one deterministic input cloud for a workload.
func GenerateFrame(w Workload, seed int64) (*Cloud, error) { return pipeline.Frame(w, seed) }

// JetsonAGXXavier returns the paper's device profile.
func JetsonAGXXavier() *Device { return edgesim.JetsonAGXXavier() }

// JetsonOrinNX returns a faster successor-tier device profile.
func JetsonOrinNX() *Device { return edgesim.JetsonOrinNX() }

// JetsonNano returns an entry-tier device profile, where the paper's
// bottleneck bites hardest.
func JetsonNano() *Device { return edgesim.JetsonNano() }

// NewPointNetVanilla builds the original PointNet classifier — the control
// architecture with no sampling or neighbor-search stage at all. It
// implements Net.
func NewPointNetVanilla(classes, baseWidth int, seed int64) (Net, error) {
	return model.NewPointNetVanilla(model.PointNetConfig{Classes: classes, BaseWidth: baseWidth, Seed: seed})
}

// NewSimConfig derives the pricing configuration for a workload/config pair.
func NewSimConfig(w Workload, kind ConfigKind, opts Options) SimConfig {
	return pipeline.SimConfig(w, kind, opts)
}

// RunFrame executes one frame through a network and prices its trace.
func RunFrame(net Net, cloud *Cloud, dev *Device, cfg SimConfig) (*Trace, Report, *Output, error) {
	return pipeline.Run(net, cloud, dev, cfg)
}

// TuneWindow picks the largest search window (multiple of the workload's k,
// up to maxMult·k) whose modelled sample+neighbor-search latency fits the
// budget — the §5.2.3 adaptive accuracy/latency dial.
func TuneWindow(dev *Device, w Workload, opts Options, budget time.Duration, maxMult int) (window int, latency time.Duration, err error) {
	return pipeline.TuneWindow(dev, w, opts, budget, maxMult)
}

// Datasets and training.
type (
	// Dataset is a deterministic indexed sample collection.
	Dataset = dataset.Dataset
	// Sample is one dataset item.
	Sample = dataset.Sample
	// TrainConfig controls a training run.
	TrainConfig = train.Config
	// TrainResult summarizes a training run.
	TrainResult = train.Result
)

// NewClassificationDataset builds the synthetic ModelNet-like dataset with
// the given per-item point count (0 keeps the Table 1 default of 1 024).
func NewClassificationDataset(items, points int, seed int64) Dataset {
	d := dataset.NewClassification(items, seed)
	if points > 0 {
		d.Points = points
	}
	return d
}

// NewPartSegmentationDataset builds the synthetic ShapeNet-like dataset with
// the given per-item point count (0 keeps the Table 1 default of 2 048).
func NewPartSegmentationDataset(items, points int, seed int64) Dataset {
	d := dataset.NewPartSegmentation(items, seed)
	if points > 0 {
		d.Points = points
	}
	return d
}

// NewSceneDataset builds the synthetic S3DIS/ScanNet-like dataset
// (style "s3dis" or "scannet").
func NewSceneDataset(items, points int, style string, seed int64) Dataset {
	return dataset.NewSceneSegmentation(items, points, style, seed)
}

// NewSceneDatasetIntensity is NewSceneDataset with the one-channel
// reflectance feature attached to every point (the RGB stand-in); pair it
// with Options.ExtraFeatDim = 1 when building networks.
func NewSceneDatasetIntensity(items, points int, style string, seed int64) Dataset {
	d := dataset.NewSceneSegmentation(items, points, style, seed)
	d.Intensity = true
	return d
}

// SplitDataset returns deterministic train/test index sets.
func SplitDataset(n int, testFrac float64) (trainIdx, testIdx []int) {
	return dataset.Split(n, testFrac)
}

// DefaultAugment returns the standard training augmentation (random Z
// rotation, uniform scale in [0.8, 1.25], 0.01 Gaussian jitter) in the form
// TrainConfig.Augment expects.
func DefaultAugment() func(*Cloud, *rand.Rand) *Cloud {
	opts := geom.DefaultAugmentOptions()
	return func(c *Cloud, rng *rand.Rand) *Cloud {
		return geom.Augment(c, opts, rng)
	}
}

// SaveNet writes a network's trained parameters to a file.
func SaveNet(path string, net Net) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nn.SaveParams(f, net.Params())
}

// LoadNet reads parameters saved by SaveNet into an architecturally
// identical network (names and shapes are verified).
func LoadNet(path string, net Net) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return nn.LoadParams(f, net.Params())
}

// SaveCheckpoint writes a crash-safe checkpoint of the network's
// parameters: versioned, per-parameter and whole-file checksummed, written
// via temp-file + fsync + atomic rename so a crash mid-write can never
// leave a torn file at path (the previous checkpoint, if any, survives).
func SaveCheckpoint(path string, net Net) error {
	return pipeline.SaveCheckpoint(path, net)
}

// LoadCheckpoint restores parameters from a SaveCheckpoint file into an
// architecturally identical network. Corruption — a flipped bit, a
// truncated tail, a foreign file — is always detected and reported with a
// typed error before any parameter is modified (all-or-nothing).
func LoadCheckpoint(path string, net Net) error {
	return pipeline.LoadCheckpoint(path, net)
}

// CopyParams copies trained weights between two architecturally identical
// networks — e.g. from a baseline-trained model into an SN-configured one
// before retraining, the paper's §5.3 procedure (the strategies differ, the
// parameter shapes do not).
func CopyParams(dst, src Net) error {
	dp, sp := dst.Params(), src.Params()
	if len(dp) != len(sp) {
		return fmt.Errorf("edgepc: parameter count mismatch: %d vs %d", len(dp), len(sp))
	}
	for i := range dp {
		if len(dp[i].Value.Data) != len(sp[i].Value.Data) {
			return fmt.Errorf("edgepc: parameter %s shape mismatch", dp[i].Name)
		}
		copy(dp[i].Value.Data, sp[i].Value.Data)
	}
	return nil
}

// Train runs the (re)training loop — with the approximations in the forward
// pass when the net was built with SN/SNF, which is how the paper recovers
// accuracy (§5.3).
func Train(net Net, ds Dataset, trainIdx, testIdx []int, cfg TrainConfig) (TrainResult, error) {
	return train.Run(net, ds, trainIdx, testIdx, cfg)
}

// Evaluate computes accuracy (and mIoU for segmentation) on the given items.
func Evaluate(net Net, ds Dataset, idx []int) (acc, miou float64, err error) {
	return train.Evaluate(net, ds, idx)
}

// CompressCloud encodes the cloud's geometry with the Morton delta codec
// (lossy, error bounded by half the voxel diagonal at the given bits/axis;
// 0 bits selects the default resolution of 10 bits/axis — the paper's a=32
// quantization).
func CompressCloud(c *Cloud, bitsPerAxis int) ([]byte, error) {
	return compress.Encode(c, compress.Options{BitsPerAxis: bitsPerAxis})
}

// DecompressCloud decodes a CompressCloud payload. The returned points are
// voxel centers in Morton order — already structurized for the EdgePC
// index-based operations.
func DecompressCloud(data []byte) (*Cloud, error) {
	return compress.Decode(data)
}

// CompressionMaxError bounds the reconstruction error for a cloud with the
// given bounds at the given resolution.
func CompressionMaxError(bounds AABB, bitsPerAxis int) float64 {
	return compress.MaxError(bounds, bitsPerAxis)
}

// File I/O.

// LoadCloud reads an ASCII OFF or PLY file, dispatching on extension.
func LoadCloud(path string) (*Cloud, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch ext(path) {
	case "off":
		return dataset.ReadOFF(f)
	case "ply":
		return dataset.ReadPLY(f)
	default:
		return nil, fmt.Errorf("edgepc: unsupported extension in %q (want .off or .ply)", path)
	}
}

// SaveCloud writes an ASCII OFF or PLY file, dispatching on extension.
func SaveCloud(path string, c *Cloud) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	switch ext(path) {
	case "off":
		return dataset.WriteOFF(f, c)
	case "ply":
		return dataset.WritePLY(f, c)
	default:
		return fmt.Errorf("edgepc: unsupported extension in %q (want .off or .ply)", path)
	}
}

func ext(path string) string {
	for i := len(path) - 1; i >= 0 && path[i] != '/'; i-- {
		if path[i] == '.' {
			out := path[i+1:]
			lower := make([]byte, len(out))
			for j := 0; j < len(out); j++ {
				c := out[j]
				if 'A' <= c && c <= 'Z' {
					c += 'a' - 'A'
				}
				lower[j] = c
			}
			return string(lower)
		}
	}
	return ""
}
