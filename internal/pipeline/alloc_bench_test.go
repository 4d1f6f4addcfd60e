package pipeline

import (
	"testing"

	"repro/internal/model"
)

// Per-frame allocation benchmarks for the inference hot path: the frame a
// serving worker runs (trace.Reset + net.Forward on a kept trace). Run with
// -benchmem (scripts/ci.sh gates them; bash bench/run.sh tracks
// allocs_per_op end to end): the allocs/op column is the regression metric —
// steady-state frames reuse the previous frame's workspace buffers, so it
// must stay small and independent of network depth.

func benchFrameAllocs(b *testing.B, arch Arch, kind ConfigKind, points int) {
	b.Helper()
	w := Workload{
		ID: "bench", Dataset: "S3DIS", Points: points, Batch: 8,
		Arch: arch, Task: model.TaskSegmentation, Classes: 8, K: 8,
	}
	opts := Options{BaseWidth: 8, Depth: 3, Modules: 3, Seed: 9}
	net, err := Build(w, kind, opts)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := Frame(w, 9)
	if err != nil {
		b.Fatal(err)
	}
	// The engine's frame: a kept trace, reset and refilled by net.Forward.
	var trace model.Trace
	// Warm-up frame: populates the workspace so the loop below measures the
	// steady state.
	if _, err := net.Forward(frame, &trace, false); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace.Reset()
		if _, err := net.Forward(frame, &trace, false); err != nil {
			b.Fatal(err)
		}
	}
}

// 512-point clouds: the first SA module's level is the smallest the spatial
// index builds a grid for, every other exact site runs the linear scan.
func BenchmarkPipelineFrameAllocsPointNetPP(b *testing.B) {
	benchFrameAllocs(b, ArchPointNetPP, Baseline, 512)
}

// 2048-point clouds: two levels (2048, 512) go through the grid, and the
// searches' fan-out is wide enough to start goroutines where there are cores.
func BenchmarkPipelineFrameAllocsPointNetPP2048(b *testing.B) {
	benchFrameAllocs(b, ArchPointNetPP, Baseline, 2048)
}

// The same clouds under S+N: structurization, the Morton stride and window
// on the first level and the Morton interpolation onto it, the exact stages
// on the rest, and at 2048 points the planner runs ahead where there is a
// second core.
func BenchmarkPipelineFrameAllocsPointNetPPSN(b *testing.B) {
	benchFrameAllocs(b, ArchPointNetPP, SN, 2048)
}

func BenchmarkPipelineFrameAllocsDGCNN(b *testing.B) {
	benchFrameAllocs(b, ArchDGCNN, Baseline, 512)
}
