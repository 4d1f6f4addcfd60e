package pipeline

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/nn"
	"repro/internal/spatial"
	"repro/internal/tensor"
)

// The golden suite pins the numerics of every Table-1 workload in both the
// Baseline and S+N configurations: logits (eval forward) for all six
// workloads, plus train-path parameter gradients for one workload per
// architecture. Fixtures were captured before the stage-graph executor
// refactor, so a passing run proves the refactored models are bit-identical
// to the hand-rolled forwards. Regenerate (only when an intentional numeric
// change lands) with:
//
//	go test ./internal/pipeline -run Golden -update-golden
var updateGolden = flag.Bool("update-golden", false, "rewrite golden fixtures from the current implementation")

// goldenScale shrinks a Table-1 workload to laptop scale while keeping its
// identity (arch, task, dataset, K).
func goldenScale(w Workload) Workload {
	w.Points = 256
	return w
}

func goldenOptions() Options {
	return Options{BaseWidth: 4, Depth: 2, Modules: 3, Seed: 11}
}

const goldenFrameSeed = 7

func goldenPath(t *testing.T, name string) string {
	t.Helper()
	return filepath.Join("testdata", "golden", name)
}

func encodeMatrix(m *tensor.Matrix) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(m.Rows))
	binary.Write(&buf, binary.LittleEndian, uint32(m.Cols))
	for _, v := range m.Data {
		binary.Write(&buf, binary.LittleEndian, math.Float32bits(v))
	}
	return buf.Bytes()
}

func encodeGrads(params []*nn.Param) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, uint32(len(params)))
	for _, p := range params {
		binary.Write(&buf, binary.LittleEndian, uint32(len(p.Grad.Data)))
		for _, v := range p.Grad.Data {
			binary.Write(&buf, binary.LittleEndian, math.Float32bits(v))
		}
	}
	return buf.Bytes()
}

// checkGolden compares got against the named fixture, or rewrites the fixture
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := goldenPath(t, name)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden fixture %s (run with -update-golden at a known-good commit): %v", path, err)
	}
	if bytes.Equal(want, got) {
		return
	}
	if len(want) != len(got) {
		t.Fatalf("%s: size changed: golden %d bytes, got %d", name, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: first byte mismatch at offset %d (of %d): golden 0x%02x, got 0x%02x", name, i, len(got), want[i], got[i])
		}
	}
}

// TestGoldenLogits checks eval-forward logits for every workload × config
// against pre-refactor fixtures, bit for bit.
func TestGoldenLogits(t *testing.T) { goldenLogits(t) }

// TestGoldenLogitsIndexForced is the same suite against the same fixtures
// with the spatial index's scan cut-off at 0. The fixtures are 256-point
// clouds, which at the shipped cut-off never build a grid; here every exact
// FPS, kNN and 3-NN of every level down to two points goes through one, and
// the logits may not move by a bit.
func TestGoldenLogitsIndexForced(t *testing.T) {
	defer spatial.SetScanBelow(spatial.SetScanBelow(0))
	goldenLogits(t)
}

func goldenLogits(t *testing.T) {
	for _, w := range Workloads {
		for _, kind := range []ConfigKind{Baseline, SN} {
			w, kind := goldenScale(w), kind
			t.Run(fmt.Sprintf("%s_%s", w.ID, kind), func(t *testing.T) {
				net, err := Build(w, kind, goldenOptions())
				if err != nil {
					t.Fatal(err)
				}
				cloud, err := Frame(w, goldenFrameSeed)
				if err != nil {
					t.Fatal(err)
				}
				out, err := net.Forward(cloud, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				checkGolden(t, fmt.Sprintf("logits_%s_%d.bin", w.ID, kind), encodeMatrix(out.Logits))

				// A second frame through the same net must agree with the
				// first: the workspace steady state may not perturb numerics.
				out2, err := net.Forward(cloud, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(encodeMatrix(out.Logits), encodeMatrix(out2.Logits)) {
					t.Fatal("second frame through the same net diverged from the first")
				}
			})
		}
	}
}

// TestGoldenGradients checks train-path parameter gradients for one workload
// per architecture (PointNet++ via W1, DGCNN via W3) in the S+N config.
func TestGoldenGradients(t *testing.T) { goldenGradients(t) }

// TestGoldenGradientsIndexForced: see TestGoldenLogitsIndexForced. The
// gradients pin the neighbor lists and the interpolation plan, not just what
// the forward pass made of them.
func TestGoldenGradientsIndexForced(t *testing.T) {
	defer spatial.SetScanBelow(spatial.SetScanBelow(0))
	goldenGradients(t)
}

func goldenGradients(t *testing.T) {
	cases := []struct {
		wid  string
		kind ConfigKind
	}{
		{"W1", SN},
		{"W3", SN},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("%s_%s", tc.wid, tc.kind), func(t *testing.T) {
			w, err := WorkloadByID(tc.wid)
			if err != nil {
				t.Fatal(err)
			}
			w = goldenScale(w)
			net, err := Build(w, tc.kind, goldenOptions())
			if err != nil {
				t.Fatal(err)
			}
			cloud, err := Frame(w, goldenFrameSeed)
			if err != nil {
				t.Fatal(err)
			}
			out, err := net.Forward(cloud, nil, true)
			if err != nil {
				t.Fatal(err)
			}
			labels := out.Labels
			if out.Logits.Rows == 1 {
				labels = []int32{1}
			}
			_, grad, err := nn.CrossEntropy(out.Logits, labels)
			if err != nil {
				t.Fatal(err)
			}
			if err := net.Backward(grad); err != nil {
				t.Fatal(err)
			}
			checkGolden(t, fmt.Sprintf("grads_%s_%d.bin", tc.wid, tc.kind), encodeGrads(net.Params()))
		})
	}
}
