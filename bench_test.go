// Benchmarks regenerating the wall-clock side of every paper table/figure on
// the host CPU (the modelled-device side lives in cmd/edgepc-bench). One
// benchmark (family) per experiment, per DESIGN.md's experiment index:
//
//	Fig. 3  -> BenchmarkFig3Pipeline*
//	Fig. 5  -> BenchmarkFig5Sampling*          (§4.2 FPS vs uniform anchor)
//	Fig. 6  -> BenchmarkFig6FNR
//	Fig. 9  -> BenchmarkFig9Interp*
//	Fig. 11 -> BenchmarkFig11WindowPerLevel
//	Fig. 13 -> BenchmarkFig13Config*
//	Fig. 14 -> BenchmarkFig14TrainStep
//	Fig. 15 -> BenchmarkFig15aWindow*
//	§5.4.1  -> BenchmarkSec541ConvShape*
//	§5.4.2  -> BenchmarkSec542Grouping*
//	ablations -> BenchmarkAblation* (also see internal/morton, internal/neighbor)
package edgepc_test

import (
	"testing"

	"repro"
)

const (
	benchPoints = 2048 // large enough to be meaningful, small enough for -bench=.
	benchK      = 8
)

func benchFrame(b *testing.B, points int) *edgepc.Cloud {
	b.Helper()
	return edgepc.GenerateScene(edgepc.SceneOptions{N: points, Seed: 42})
}

// --- Fig. 5 / §4.2: sampling ---

func BenchmarkFig5SamplingFPS(b *testing.B) {
	frame := benchFrame(b, benchPoints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgepc.SampleFPS(frame, benchPoints/4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5SamplingMorton(b *testing.B) {
	frame := benchFrame(b, benchPoints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgepc.SampleMorton(frame, benchPoints/4); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5SamplingMortonPickOnly(b *testing.B) {
	frame := benchFrame(b, benchPoints)
	s, err := edgepc.Structurize(frame, edgepc.StructurizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgepc.SampleStructurized(s, benchPoints/4); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 6 / Fig. 15a: neighbor search ---

func BenchmarkFig6FNR(b *testing.B) {
	frame := benchFrame(b, benchPoints)
	s, err := edgepc.Structurize(frame, edgepc.StructurizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	exact, err := edgepc.KNNNeighbors(s.Cloud.Points, s.Cloud.Points, benchK)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		approx, err := edgepc.WindowNeighbors(s, pos, benchK, benchK)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := edgepc.FalseNeighborRatio(approx, exact, benchK); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15aWindowExactKNN(b *testing.B) {
	frame := benchFrame(b, benchPoints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgepc.KNNNeighbors(frame.Points, frame.Points, benchK); err != nil {
			b.Fatal(err)
		}
	}
}

func benchWindow(b *testing.B, w int) {
	frame := benchFrame(b, benchPoints)
	s, err := edgepc.Structurize(frame, edgepc.StructurizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgepc.WindowNeighbors(s, pos, benchK, w); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15aWindow1k(b *testing.B)  { benchWindow(b, benchK) }
func BenchmarkFig15aWindow2k(b *testing.B)  { benchWindow(b, 2*benchK) }
func BenchmarkFig15aWindow4k(b *testing.B)  { benchWindow(b, 4*benchK) }
func BenchmarkFig15aWindow16k(b *testing.B) { benchWindow(b, 16*benchK) }

// --- Fig. 11: per-level window search (levels shrink 4× each) ---

func BenchmarkFig11WindowPerLevel(b *testing.B) {
	// One window search per hierarchy level (levels shrink 4×), the work
	// pattern of applying the approximation to every SA module.
	frame := benchFrame(b, benchPoints)
	s, err := edgepc.Structurize(frame, edgepc.StructurizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// Query positions per level: the stride-sampled positions.
	var levels [][]int
	for n := s.Len(); n > 4*benchK; n /= 4 {
		pos := make([]int, 0, n/4)
		for p := 0; p < s.Len(); p += s.Len() / (n / 4) {
			pos = append(pos, p)
		}
		levels = append(levels, pos)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pos := range levels {
			if _, err := edgepc.WindowNeighbors(s, pos, benchK, 2*benchK); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- Fig. 9: interpolation (up-sampling) ---

func BenchmarkFig9InterpBaseline(b *testing.B) {
	// ThreeNN plans over the full coarse set: the SOTA FP path, exercised
	// through a baseline PointNet++ forward (interp included).
	benchPipeline(b, edgepc.Baseline, edgepc.ArchPointNetPP)
}

func BenchmarkFig9InterpMorton(b *testing.B) {
	benchPipeline(b, edgepc.SN, edgepc.ArchPointNetPP)
}

// --- Fig. 3 / Fig. 13: full pipelines ---

func benchPipeline(b *testing.B, kind edgepc.ConfigKind, arch edgepc.Arch) {
	b.Helper()
	w := edgepc.Workload{
		ID: "bench", Dataset: "S3DIS", Points: 512, Batch: 8,
		Arch: arch, Task: edgepc.TaskSegmentation, Classes: 8, K: benchK,
	}
	opts := edgepc.Options{BaseWidth: 8, Depth: 3, Modules: 3, Seed: 9}
	net, err := edgepc.BuildNet(w, kind, opts)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := edgepc.GenerateFrame(w, 9)
	if err != nil {
		b.Fatal(err)
	}
	dev := edgepc.JetsonAGXXavier()
	cfg := edgepc.NewSimConfig(w, kind, opts)
	// One warm-up frame so the steady state (workspace buffers populated) is
	// what gets measured, then report allocations — the per-frame allocation
	// count is a tracked regression metric (allocs_per_op in bash bench/run.sh).
	if _, _, _, err := edgepc.RunFrame(net, frame, dev, cfg); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := edgepc.RunFrame(net, frame, dev, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig3PipelinePointNetBaseline(b *testing.B) {
	benchPipeline(b, edgepc.Baseline, edgepc.ArchPointNetPP)
}

func BenchmarkFig3PipelineDGCNNBaseline(b *testing.B) {
	benchPipeline(b, edgepc.Baseline, edgepc.ArchDGCNN)
}

func BenchmarkFig13ConfigSN(b *testing.B) {
	benchPipeline(b, edgepc.SN, edgepc.ArchPointNetPP)
}

func BenchmarkFig13ConfigSNF(b *testing.B) {
	benchPipeline(b, edgepc.SNF, edgepc.ArchDGCNN)
}

// --- Fig. 14: one retraining step ---

func BenchmarkFig14TrainStep(b *testing.B) {
	ds := edgepc.NewClassificationDataset(4, 128, 3)
	w := edgepc.Workload{
		Arch: edgepc.ArchDGCNN, Task: edgepc.TaskClassification,
		Classes: ds.Classes(), K: benchK,
	}
	net, err := edgepc.BuildNet(w, edgepc.SN, edgepc.Options{BaseWidth: 8, Modules: 2, Seed: 4})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One epoch over the 4-item dataset = 4 forward+backward steps.
		if _, err := edgepc.Train(net, ds, []int{0, 1, 2, 3}, nil, edgepc.TrainConfig{
			Epochs: 1, LR: 1e-3, BatchSize: 4, Seed: int64(i),
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- §5.4.2: grouping with sorted vs raw index rows ---

func BenchmarkSec542GroupingRaw(b *testing.B)    { benchGrouping(b, false) }
func BenchmarkSec542GroupingSorted(b *testing.B) { benchGrouping(b, true) }

func benchGrouping(b *testing.B, sorted bool) {
	frame := benchFrame(b, benchPoints)
	nbr, err := edgepc.KNNNeighbors(frame.Points, frame.Points[:benchPoints/4], benchK)
	if err != nil {
		b.Fatal(err)
	}
	if sorted {
		for q := 0; q < benchPoints/4; q++ {
			row := nbr[q*benchK : (q+1)*benchK]
			insertionSort(row)
		}
	}
	// Gather a 32-wide feature row per neighbor, the grouping stage's
	// memory pattern.
	const c = 32
	feat := make([]float32, benchPoints*c)
	for i := range feat {
		feat[i] = float32(i)
	}
	out := make([]float32, len(nbr)*c)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, n := range nbr {
			copy(out[j*c:(j+1)*c], feat[n*c:(n+1)*c])
		}
	}
	b.SetBytes(int64(len(nbr) * c * 4))
}

func insertionSort(a []int) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j-1] > a[j]; j-- {
			a[j-1], a[j] = a[j], a[j-1]
		}
	}
}

// --- Ablation: structurize cost by code width ---

func benchStructurize(b *testing.B, bits int) {
	frame := benchFrame(b, benchPoints)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := edgepc.Structurize(frame, edgepc.StructurizeOptions{TotalBits: bits}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationStructurize30Bits(b *testing.B) { benchStructurize(b, 30) }
func BenchmarkAblationStructurize63Bits(b *testing.B) { benchStructurize(b, 63) }
