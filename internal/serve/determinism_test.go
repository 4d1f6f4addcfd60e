package serve

import (
	"context"
	"math"
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

// serveWorkload is a laptop-scale PointNet++ segmentation row for serve tests
// (small cloud, shallow net — fast enough to run many frames under -race).
func serveWorkload() (pipeline.Workload, pipeline.Options) {
	w := pipeline.Workload{
		ID: "serve-test", Dataset: "S3DIS", Points: 128, Batch: 1,
		Arch: pipeline.ArchPointNetPP, Task: model.TaskSegmentation, Classes: 8, K: 4,
	}
	return w, pipeline.Options{BaseWidth: 8, Depth: 2, Seed: 7}
}

func sameBits(a, b *tensor.Matrix) bool {
	if a == nil || b == nil || a.Rows != b.Rows || a.Cols != b.Cols {
		return false
	}
	for i := range a.Data {
		if math.Float32bits(a.Data[i]) != math.Float32bits(b.Data[i]) {
			return false
		}
	}
	return true
}

// TestServeDeterministicLogits is the engine-level determinism guarantee: the
// same frame served by any worker of the pool yields bit-identical logits.
// Weight sharing (pipeline.Replicas), deterministic parallel chunking
// (parallel.ForWorkers) and the Morton sort's stable tie-break together make
// the forward pass a pure function of (weights, frame).
func TestServeDeterministicLogits(t *testing.T) {
	w, opts := serveWorkload()
	// S+N covers the Morton structurize/sample/window path, not just baseline.
	nets, err := pipeline.Replicas(w, pipeline.SN, opts, 2)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := pipeline.Frame(w, 11)
	if err != nil {
		t.Fatal(err)
	}

	// Replica-level: two weight-sharing nets, same frame, same bits.
	outA, err := nets[0].Forward(frame, &model.Trace{}, false)
	if err != nil {
		t.Fatal(err)
	}
	outB, err := nets[1].Forward(frame, &model.Trace{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(outA.Logits, outB.Logits) {
		t.Fatal("replica logits differ for the same frame")
	}
	for i := range outA.Perm {
		if outA.Perm[i] != outB.Perm[i] {
			t.Fatalf("replica perms differ at %d", i)
		}
	}

	// Engine-level: many concurrent submissions of the frame land on both
	// workers; every result must match the reference bits.
	e, err := NewEngine(nets, Config{QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	outs := make([]*model.Output, n)
	workers := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := e.Submit(context.Background(), Request{Cloud: frame})
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			outs[i], workers[i] = res.Output, res.Worker
		}(i)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	seen := map[int]int{}
	for i, out := range outs {
		if out == nil {
			t.Fatalf("result %d missing", i)
		}
		if !sameBits(outA.Logits, out.Logits) {
			t.Fatalf("result %d (worker %d): logits differ from reference", i, workers[i])
		}
		seen[workers[i]]++
	}
	t.Logf("frames per worker: %v", seen)
}
