package pipeline

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/model"
)

func TestArchString(t *testing.T) {
	if ArchPointNetPP.String() != "pointnet++" || ArchDGCNN.String() != "dgcnn" {
		t.Fatalf("arch names: %s, %s", ArchPointNetPP, ArchDGCNN)
	}
	if got := Arch(42).String(); got != "arch(42)" {
		t.Fatalf("unknown arch = %q", got)
	}
}

func TestNewNetUnregisteredArch(t *testing.T) {
	w := Workloads[0]
	w.Arch = Arch(42)
	_, err := Build(w, Baseline, Options{})
	if err == nil {
		t.Fatal("unknown arch: want error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "arch(42)") {
		t.Fatalf("error does not name the arch: %v", err)
	}
	if !strings.Contains(msg, "dgcnn") || !strings.Contains(msg, "pointnet++") {
		t.Fatalf("error does not list the known arches: %v", err)
	}
}

// TestMortonLayersPlacement pins where Options.MortonLayers puts the Morton
// approximations (§5.1.3, §5.2.3; Fig. 15b sweeps the count): SA l and the
// FP module producing level l run them iff l < MortonLayers, DGCNN's first
// EdgeConv runs the window whenever MortonLayers ≥ 1 (deeper modules search
// in feature space or reuse), and Baseline runs the SOTA stages at any count.
func TestMortonLayersPlacement(t *testing.T) {
	const depth = 3
	algos := func(t *testing.T, w Workload, kind ConfigKind, opts Options) map[string][]string {
		t.Helper()
		w.Points = 256
		net, err := Build(w, kind, opts)
		if err != nil {
			t.Fatal(err)
		}
		frame, err := Frame(w, 5)
		if err != nil {
			t.Fatal(err)
		}
		trace := &model.Trace{}
		if _, err := net.Forward(frame, trace, false); err != nil {
			t.Fatal(err)
		}
		got := map[string][]string{}
		for _, sp := range trace.Spans {
			for _, r := range trace.SpanRecords(sp) {
				switch r.Stage {
				case model.StageSample, model.StageNeighbor, model.StageInterp:
					got[sp.Node] = append(got[sp.Node], r.Algo)
				}
			}
		}
		return got
	}
	for _, kind := range []ConfigKind{Baseline, SN} {
		for _, layers := range []int{1, 2, depth} {
			opts := Options{BaseWidth: 4, Depth: depth, Modules: 3, Seed: 11, MortonLayers: layers}
			got := algos(t, Workloads[0], kind, opts)
			for l := 0; l < depth; l++ {
				morton := kind != Baseline && l < layers
				sa, fp := []string{"fps", "knn-brute"}, []string{"three-nn"}
				if morton {
					sa, fp = []string{"morton-pick", "morton-window"}, []string{"morton-interp"}
				}
				// fp i produces level depth−1−i.
				for node, want := range map[string][]string{fmt.Sprintf("sa%d", l): sa, fmt.Sprintf("fp%d", depth-1-l): fp} {
					if !slices.Equal(got[node], want) {
						t.Errorf("W1 %v MortonLayers %d: %s runs %v, want %v", kind, layers, node, got[node], want)
					}
				}
			}
			ec := []string{"knn-brute", "knn-feature", "knn-feature"}
			if kind != Baseline {
				ec = []string{"morton-window", "reuse", "knn-feature"}
			}
			got = algos(t, Workloads[2], kind, opts)
			for l, want := range ec {
				node := fmt.Sprintf("ec%d", l)
				if !slices.Equal(got[node], []string{want}) {
					t.Errorf("W3 %v MortonLayers %d: %s runs %v, want [%s]", kind, layers, node, got[node], want)
				}
			}
		}
	}
}
