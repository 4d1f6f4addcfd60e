package serve

import (
	"context"
	"testing"

	"repro/internal/model"
	"repro/internal/pipeline"
)

// BenchmarkServeSteadyState measures per-frame allocations of a warm serving
// worker at the same model scale as the pipeline alloc benchmarks
// (BenchmarkPipelineFrameAllocs*), so the two columns are directly
// comparable: the serve layer must add only the request, its reply channel
// and the detached Output to the pipeline's steady-state count.
func BenchmarkServeSteadyState(b *testing.B) {
	w := pipeline.Workload{
		ID: "bench", Dataset: "S3DIS", Points: 512, Batch: 8,
		Arch: pipeline.ArchPointNetPP, Task: model.TaskSegmentation, Classes: 8, K: 8,
	}
	opts := pipeline.Options{BaseWidth: 8, Depth: 3, Seed: 9}
	nets, err := pipeline.Replicas(w, pipeline.Baseline, opts, 1)
	if err != nil {
		b.Fatal(err)
	}
	frame, err := pipeline.Frame(w, 9)
	if err != nil {
		b.Fatal(err)
	}
	e, err := NewEngine(nets, Config{QueueDepth: 4})
	if err != nil {
		b.Fatal(err)
	}
	defer e.Close()
	ctx := context.Background()
	// Warm-up frame populates the worker's workspace.
	if _, err := e.Submit(ctx, Request{Cloud: frame}); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Submit(ctx, Request{Cloud: frame}); err != nil {
			b.Fatal(err)
		}
	}
}
