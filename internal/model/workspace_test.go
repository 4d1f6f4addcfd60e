package model

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/geom"
)

func wsTestCloud(t *testing.T, points int) *geom.Cloud {
	t.Helper()
	s, err := dataset.NewSceneSegmentation(1, points, "s3dis", 5).At(0)
	if err != nil {
		t.Fatal(err)
	}
	return s.Cloud
}

// runFrames runs eval Forward repeatedly and checks that (a) every frame is
// deterministic and (b) a frame's Output survives later frames — the logits
// must be detached from the workspace, not aliased into buffers the next
// frame overwrites.
func runFrames(t *testing.T, net interface {
	Forward(cloud *geom.Cloud, trace *Trace, train bool) (*Output, error)
}, cloud *geom.Cloud) {
	t.Helper()
	first, err := net.Forward(cloud, &Trace{}, false)
	if err != nil {
		t.Fatal(err)
	}
	snapshot := first.Logits.Clone()
	for frame := 0; frame < 2; frame++ {
		out, err := net.Forward(cloud, &Trace{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Logits.Equal(snapshot) {
			t.Fatalf("frame %d: eval forward is not deterministic", frame)
		}
	}
	if !first.Logits.Equal(snapshot) {
		t.Fatal("first frame's logits were clobbered by later frames")
	}
}

func TestPointNetPPWorkspaceFrameStability(t *testing.T) {
	net, err := NewPointNetPP(PPConfig{
		Classes: 5, Depth: 2, BaseWidth: 4, K: 4, SampleFrac: 0.25, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	runFrames(t, net, wsTestCloud(t, 128))
	if net.graph.ws == nil {
		t.Fatal("eval forward did not create the workspace")
	}
	// Warm frames must be served entirely from recycled buffers.
	misses := net.graph.ws.Stats().Misses
	if _, err := net.Forward(wsTestCloud(t, 128), &Trace{}, false); err != nil {
		t.Fatal(err)
	}
	if got := net.graph.ws.Stats().Misses; got != misses {
		t.Fatalf("steady-state frame allocated %d new buffers", got-misses)
	}
}

func TestDGCNNWorkspaceFrameStability(t *testing.T) {
	for _, task := range []Task{TaskSegmentation, TaskClassification} {
		net, err := NewDGCNN(DGCNNConfig{
			Classes: 5, Modules: 2, BaseWidth: 4, K: 4, Task: task, Seed: 3,
		})
		if err != nil {
			t.Fatal(err)
		}
		runFrames(t, net, wsTestCloud(t, 128))
		if net.graph.ws == nil {
			t.Fatal("eval forward did not create the workspace")
		}
		misses := net.graph.ws.Stats().Misses
		if _, err := net.Forward(wsTestCloud(t, 128), &Trace{}, false); err != nil {
			t.Fatal(err)
		}
		if got := net.graph.ws.Stats().Misses; got != misses {
			t.Fatalf("task %d: steady-state frame allocated %d new buffers", task, got-misses)
		}
	}
}

// TestWorkspaceEvalMatchesTrainForward checks numerics across the mode
// switch: with dropout disabled, the training forward and the
// workspace-backed eval forward see identical arithmetic (BatchNorm uses
// batch statistics in both paths for multi-row inputs) and must agree
// bit-for-bit on the logits.
func TestWorkspaceEvalMatchesTrainForward(t *testing.T) {
	cloud := wsTestCloud(t, 96)
	net, err := NewPointNetPP(PPConfig{
		Classes: 5, Depth: 2, BaseWidth: 4, K: 4, SampleFrac: 0.25,
		Dropout: -1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	trainOut, err := net.Forward(cloud, &Trace{}, true)
	if err != nil {
		t.Fatal(err)
	}
	want := trainOut.Logits.Clone()
	evalOut, err := net.Forward(cloud, &Trace{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !evalOut.Logits.Equal(want) {
		t.Fatal("workspace eval forward differs from training forward")
	}
}

// TestStructurizedOutputOutlivesNextForward checks the two buffers a
// structurized frame still allocates: an Output's Perm and Labels, which the
// graph writes fresh while the sorted points and features stay in its kept
// buffers, must survive the next frames untouched along with the logits,
// and equal core.Structurize's — at one core and at two, where the pass
// fans out.
func TestStructurizedOutputOutlivesNextForward(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	first, next := wsTestCloud(t, 2500), wsTestCloud(t, 2300)
	for i := range next.Points {
		next.Points[i].X = -next.Points[i].X
	}
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		net, err := NewPointNetPP(PPConfig{
			Classes: 5, Depth: 2, BaseWidth: 4, K: 4, SampleFrac: 0.25, Seed: 3,
			Structurize: &core.StructurizeOptions{}, MortonLayers: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		out, err := net.Forward(first, &Trace{}, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Structurize(first, core.StructurizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(out.Perm, want.Perm) || !slices.Equal(out.Labels, want.Cloud.Labels) {
			t.Fatalf("GOMAXPROCS %d: the frame's permutation or labels differ from core.Structurize's", procs)
		}
		logits := out.Logits.Clone()
		for _, train := range []bool{false, true, false} {
			if _, err := net.Forward(next, &Trace{}, train); err != nil {
				t.Fatal(err)
			}
		}
		if !slices.Equal(out.Perm, want.Perm) || !slices.Equal(out.Labels, want.Cloud.Labels) || !out.Logits.Equal(logits) {
			t.Fatalf("GOMAXPROCS %d: later frames overwrote an Output", procs)
		}
	}
}
