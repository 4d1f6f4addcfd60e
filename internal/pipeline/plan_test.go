package pipeline

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/nn"
)

// planFrame is what a PointNet++ frame shows of its schedule: the logits,
// the stage records without their wall times, the spans' nodes and record
// ranges, and the priced report without wall times.
type planFrame struct {
	logits  []uint32 // the bits
	records []model.StageRecord
	spans   []model.Span
	report  edgesim.Report
}

func capturePlanFrame(t *testing.T, net Net, w Workload, kind ConfigKind, opts Options, seed int64) planFrame {
	t.Helper()
	cloud, err := Frame(w, seed)
	if err != nil {
		t.Fatal(err)
	}
	tr, rep, out := runPriced(t, net, cloud, edgesim.JetsonAGXXavier(), SimConfig(w, kind, opts))
	f := planFrame{logits: bitsOf(out.Logits.Data), report: rep}
	for _, r := range tr.Records {
		r.Dur = 0
		f.records = append(f.records, r)
	}
	for _, sp := range tr.Spans {
		sp.Dur = 0
		f.spans = append(f.spans, sp)
	}
	for i := range f.report.Records {
		f.report.Records[i].Dur = 0
	}
	return f
}

// TestPlanAheadMatchesInline: a PointNet++ frame's coordinate planner runs
// ahead of the feature pass on a second core from model's planGrain (2048
// points) up, and inline — the whole plan first, then the feature pass — on
// one core or below it. Both schedules must give the same frame: logits bit
// for bit, every stage record field but the wall time, the spans' node order
// and record ranges, the edgesim price, and a training step's gradients.
// GOMAXPROCS alternates between the frames of one net, so the plan's kept
// buffers also cross from one schedule to the other. The feature pass's
// waits on the plan run under the race detector here (scripts/ci.sh).
func TestPlanAheadMatchesInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	w, err := WorkloadByID("W1")
	if err != nil {
		t.Fatal(err)
	}
	base := Options{BaseWidth: 8, Seed: 3}
	rung := DegradeTiers(w, base, 1)[0]
	ml2 := base
	ml2.MortonLayers = 2
	for _, tc := range []struct {
		name string
		kind ConfigKind
		opts Options
	}{
		{"baseline", Baseline, base},
		{"S+N", SN, base},
		{"S+N_ML2", SN, ml2},
		{"S+N_rung", SN, rung},
	} {
		for _, points := range []int{1024, 4096} { // below and above planGrain
			w.Points = points
			t.Run(fmt.Sprintf("%s_%d", tc.name, points), func(t *testing.T) {
				net, err := Build(w, tc.kind, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				for seed := int64(1); seed <= 2; seed++ {
					runtime.GOMAXPROCS(1)
					want := capturePlanFrame(t, net, w, tc.kind, tc.opts, seed)
					for _, procs := range []int{2, 4} {
						runtime.GOMAXPROCS(procs)
						got := capturePlanFrame(t, net, w, tc.kind, tc.opts, seed)
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("frame %d at GOMAXPROCS %d differs from GOMAXPROCS 1: %s", seed, procs, planDiff(got, want))
						}
					}
				}
			})
		}
	}

	// One training step: Forward(train) and Backward.
	w.Points = 4096
	for _, kind := range []ConfigKind{Baseline, SN} {
		t.Run("train_"+kind.String(), func(t *testing.T) {
			cloud, err := Frame(w, 5)
			if err != nil {
				t.Fatal(err)
			}
			var want [][]uint32
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				net, err := Build(w, kind, base)
				if err != nil {
					t.Fatal(err)
				}
				got := trainStepGrads(t, net, cloud)
				if want == nil {
					want = got
				} else if !reflect.DeepEqual(got, want) {
					t.Fatalf("gradients at GOMAXPROCS %d differ from GOMAXPROCS 1", procs)
				}
			}
		})
	}
}

// trainStepGrads runs one training step with a fixed loss gradient and
// returns every parameter's gradient.
func trainStepGrads(t *testing.T, net Net, cloud *geom.Cloud) [][]uint32 {
	t.Helper()
	nn.ZeroGrads(net.Params())
	out, err := net.Forward(cloud, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	g := out.Logits.Clone()
	for i := range g.Data {
		g.Data[i] = float32(i%7) * 0.01
	}
	if err := net.Backward(g); err != nil {
		t.Fatal(err)
	}
	var grads [][]uint32
	for _, p := range net.Params() {
		grads = append(grads, bitsOf(p.Grad.Data))
	}
	return grads
}

func bitsOf(v []float32) []uint32 {
	out := make([]uint32, len(v))
	for i, f := range v {
		out[i] = math.Float32bits(f)
	}
	return out
}

// planDiff names the first part of two frames that differs.
func planDiff(got, want planFrame) string {
	switch {
	case !reflect.DeepEqual(got.logits, want.logits):
		return "logits"
	case !reflect.DeepEqual(got.records, want.records):
		for i := range want.records {
			if i >= len(got.records) || got.records[i] != want.records[i] {
				return fmt.Sprintf("stage record %d (%d records, want %d)", i, len(got.records), len(want.records))
			}
		}
		return fmt.Sprintf("%d stage records, want %d", len(got.records), len(want.records))
	case !reflect.DeepEqual(got.spans, want.spans):
		return "spans"
	default:
		return "priced report"
	}
}
