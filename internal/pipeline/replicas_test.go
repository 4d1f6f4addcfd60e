package pipeline

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/sample"
)

// tinyWorkload is a scaled-down DGCNN row: replica construction and one
// forward stay fast.
func tinyWorkload() Workload {
	return Workload{
		ID: "T", Model: "DGCNN(c)", Dataset: "ModelNet40",
		Points: 128, Batch: 1, Task: model.TaskClassification,
		Arch: ArchDGCNN, Classes: 10, K: 4,
	}
}

func sharesAllParams(t *testing.T, ref, n Net) {
	t.Helper()
	rp, np := ref.Params(), n.Params()
	if len(rp) != len(np) || len(rp) == 0 {
		t.Fatalf("param count %d vs %d", len(rp), len(np))
	}
	for i := range rp {
		if rp[i].Value != np[i].Value {
			t.Fatalf("param %d (%s) not shared", i, rp[i].Name)
		}
		if rp[i].Grad == np[i].Grad {
			t.Fatalf("param %d (%s) shares gradients; only values may alias", i, rp[i].Name)
		}
	}
}

func TestRebuildReplicaSharesParams(t *testing.T) {
	w := tinyWorkload()
	ref, err := Build(w, SN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reb, err := RebuildReplica(ref, w, SN, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if reb == ref {
		t.Fatal("rebuild returned the reference net")
	}
	sharesAllParams(t, ref, reb)
	// The rebuilt replica must actually serve.
	frame, err := Frame(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := reb.Forward(frame, &model.Trace{}, false); err != nil {
		t.Fatalf("rebuilt replica forward: %v", err)
	}
	if _, err := RebuildReplica(nil, w, SN, Options{}); err == nil {
		t.Fatal("nil reference accepted")
	}
}

func TestDegradeTiersOneRungForPointNetPPNoneForDGCNN(t *testing.T) {
	for _, w := range Workloads {
		for _, in := range []Options{{}, {SampleFrac: 0.08, WindowW: 24, MortonLayers: 2}} {
			for _, n := range []int{-1, 0} {
				if got := DegradeTiers(w, in, n); got != nil {
					t.Fatalf("%s: n=%d produced %d tiers, want no ladder", w.ID, n, len(got))
				}
			}
			for _, n := range []int{1, 2, 5, 50} {
				tiers := DegradeTiers(w, in, n)
				if w.Arch == ArchDGCNN {
					if tiers != nil {
						t.Fatalf("%s: n=%d produced %d tiers, want none for DGCNN", w.ID, n, len(tiers))
					}
					continue
				}
				if len(tiers) != 1 {
					t.Fatalf("%s: n=%d produced %d tiers, want exactly 1", w.ID, n, len(tiers))
				}
				base, rung := in, tiers[0]
				base.defaults(w)
				if want := math.Max(base.SampleFrac/2, 0.05); rung.SampleFrac != want {
					t.Fatalf("%s: rung sample budget %v, want %v (half of %v, floor 0.05)", w.ID, rung.SampleFrac, want, base.SampleFrac)
				}
				if rung.SampleArch != sample.ArchBucketFPS || rung.SampleQuality != 0.5 {
					t.Fatalf("%s: rung sampler %v@%v, want bucketfps@0.5", w.ID, rung.SampleArch, rung.SampleQuality)
				}
				if rung.WindowW != base.WindowW ||
					rung.ReuseDistance != base.ReuseDistance || rung.MortonLayers != base.MortonLayers {
					t.Fatalf("%s: rung moved a knob that relieves no load:\nbase %+v\nrung %+v", w.ID, base, rung)
				}
			}
		}
	}
}

// featureWork sums Q·CIn·COut over a frame's feature-stage records: the
// multiply-accumulates of the shared MLPs, which own the S+N frame.
func featureWork(t *testing.T, n Net, frame *geom.Cloud, w Workload, kind ConfigKind) int {
	t.Helper()
	trace := &model.Trace{}
	if _, err := n.Forward(frame, trace, false); err != nil {
		t.Fatal(err)
	}
	work := 0
	for _, r := range trace.Records {
		if r.Stage == model.StageFeature {
			work += r.Q * r.CIn * r.COut
		}
	}
	return work
}

func TestDegradeRungCutsFeatureWork(t *testing.T) {
	// A rung exists to relieve load. Wall-clock says so in scripts/ci.sh;
	// this is the deterministic half: the rung must drop at least a quarter
	// of full fidelity's feature-stage work, under the paper's design point
	// and under the exact-FPS/exact-kNN baseline.
	w, err := WorkloadByID("W1")
	if err != nil {
		t.Fatal(err)
	}
	w.Points = 1024 // the ratio does not depend on N; keep the -race run short
	frame, err := Frame(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []ConfigKind{SN, Baseline} {
		fleet, err := FleetReplicas(w, kind, Options{}, 1, 1, DegradeTiers(w, Options{}, 1))
		if err != nil {
			t.Fatal(err)
		}
		rows := fleet[0]
		if len(rows) != 2 {
			t.Fatalf("%s: got %d rows, want full fidelity and one rung", kind, len(rows))
		}
		sharesAllParams(t, rows[0][0], rows[1][0])
		full := featureWork(t, rows[0][0], frame, w, kind)
		rung := featureWork(t, rows[1][0], frame, w, kind)
		if full == 0 || float64(rung) > 0.75*float64(full) {
			t.Fatalf("%s: rung feature work %d vs full %d (%.2fx), want ≤ 0.75x", kind, rung, full, float64(rung)/float64(full))
		}
		t.Logf("%s: rung feature work %.2fx of full", kind, float64(rung)/float64(full))
	}
}

func TestSampleArchReachesBucketFPS(t *testing.T) {
	// Options.SampleArch must flow through Build into the
	// SA modules: under the baseline config (no Morton stride) every SA
	// sample stage should report the bucketed sampler in its trace.
	w := Workload{
		ID: "T2", Model: "PointNet++(s)", Dataset: "ModelNet40",
		Points: 256, Batch: 1, Task: model.TaskSegmentation,
		Arch: ArchPointNetPP, Classes: 10, K: 4,
	}
	opts := Options{Depth: 2, SampleArch: sample.ArchBucketFPS, SampleQuality: 0.75}
	net, err := Build(w, Baseline, opts)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := Frame(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	trace := &model.Trace{}
	if _, err := net.Forward(frame, trace, false); err != nil {
		t.Fatal(err)
	}
	samples := 0
	for _, r := range trace.Records {
		if r.Stage != model.StageSample {
			continue
		}
		samples++
		if r.Algo != "bucketfps" {
			t.Fatalf("SA%d sample algo %q, want bucketfps", r.Layer, r.Algo)
		}
	}
	if samples != opts.Depth {
		t.Fatalf("saw %d sample stages, want %d", samples, opts.Depth)
	}
}

// One engine is the single-engine serving set: a full-fidelity row and one
// row per tier, every net distinct and sharing the base replica's weights.
func TestSingleEngineReplicasShareOneParamSet(t *testing.T) {
	w := tinyWorkload()
	const workers = 2
	tiers := DegradeTiers(w, Options{}, 2)
	fleet, err := FleetReplicas(w, SN, Options{}, 1, workers, tiers)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 1 {
		t.Fatalf("got %d engines, want 1", len(fleet))
	}
	rows := fleet[0]
	if len(rows) != 1+len(tiers) {
		t.Fatalf("got %d rows, want %d", len(rows), 1+len(tiers))
	}
	seen := map[Net]bool{}
	for ri, row := range rows {
		if len(row) != workers {
			t.Fatalf("row %d has %d nets, want %d", ri, len(row), workers)
		}
		for wi, n := range row {
			if n == nil {
				t.Fatalf("nil net at row %d worker %d", ri, wi)
			}
			if seen[n] {
				t.Fatalf("net at row %d worker %d duplicated", ri, wi)
			}
			seen[n] = true
			if ri == 0 && wi == 0 {
				continue
			}
			sharesAllParams(t, rows[0][0], n)
		}
	}
	// A degraded replica serves the same frame the full one does.
	frame, err := Frame(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []Net{rows[0][0], rows[len(rows)-1][workers-1]} {
		if _, err := n.Forward(frame, &model.Trace{}, false); err != nil {
			t.Fatalf("tiered replica forward: %v", err)
		}
	}
}

func TestFleetReplicasShareOneParamSet(t *testing.T) {
	w := tinyWorkload()
	const engines, workers = 3, 2
	tiers := DegradeTiers(w, Options{}, 1)
	fleet, err := FleetReplicas(w, SN, Options{}, engines, workers, tiers)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != engines {
		t.Fatalf("got %d engines, want %d", len(fleet), engines)
	}
	ref := fleet[0][0][0]
	seen := map[Net]bool{}
	for ei, rows := range fleet {
		if len(rows) != 1+len(tiers) {
			t.Fatalf("engine %d has %d rows, want %d", ei, len(rows), 1+len(tiers))
		}
		for ri, row := range rows {
			if len(row) != workers {
				t.Fatalf("engine %d row %d has %d nets, want %d", ei, ri, len(row), workers)
			}
			for wi, n := range row {
				if seen[n] {
					t.Fatalf("net at engine %d row %d worker %d duplicated", ei, ri, wi)
				}
				seen[n] = true
				if n == ref {
					continue
				}
				// One weight set per process, fleet-wide: every net on every
				// engine aliases the reference parameters.
				sharesAllParams(t, ref, n)
			}
		}
	}
	// A replica from the last engine's degraded row serves a frame.
	frame, err := Frame(w, 2)
	if err != nil {
		t.Fatal(err)
	}
	last := fleet[engines-1][len(tiers)][workers-1]
	if _, err := last.Forward(frame, &model.Trace{}, false); err != nil {
		t.Fatalf("fleet replica forward: %v", err)
	}
	if _, err := FleetReplicas(w, SN, Options{}, 0, workers, tiers); err == nil {
		t.Fatal("zero engines accepted")
	}
	if _, err := FleetReplicas(w, SN, Options{}, engines, 0, tiers); err == nil {
		t.Fatal("zero workers accepted")
	}
}
