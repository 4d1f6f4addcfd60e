package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/nn"
)

// TestDeferredGradientsMatchInline: from model's gradGrain (256 points) up
// on more than one core, a training step's Linear weight gradients run on a
// worker beside the stage walk; on one core, or below the grain, inline. A
// step must give every Param.Grad the bits of an inline step either way. One
// net per case steps at GOMAXPROCS 1, 2 and 4 in turn over clouds below and
// above the grain, so its kept arena and queue cross schedules; a twin net
// takes every step at GOMAXPROCS 1 and is the reference, and an Adam step on
// both moves the weights between steps. The walk's hand-offs to the worker
// and back run under the race detector here (scripts/ci.sh).
func TestDeferredGradientsMatchInline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, tc := range []struct {
		id     string
		opts   Options
		points []int
	}{
		{"W3", Options{Seed: 2, BaseWidth: 16, Modules: 4}, []int{128, 1024}},
		{"W1", Options{Seed: 2, BaseWidth: 8}, []int{128, 512}},
	} {
		t.Run(tc.id, func(t *testing.T) {
			w, err := WorkloadByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			net, err := Build(w, SN, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := Build(w, SN, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			opt, refOpt := nn.NewAdam(1e-3), nn.NewAdam(1e-3)
			for s, procs := range []int{2, 1, 4, 2, 4, 1} {
				w.Points = tc.points[s%len(tc.points)]
				cloud, err := Frame(w, int64(s+1))
				if err != nil {
					t.Fatal(err)
				}
				runtime.GOMAXPROCS(procs)
				got := trainStepGrads(t, net, cloud)
				runtime.GOMAXPROCS(1)
				want := trainStepGrads(t, ref, cloud)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("step %d (%d points, GOMAXPROCS %d): %s", s, w.Points, procs, gradDiff(net, got, want))
				}
				opt.Step(net.Params())
				refOpt.Step(ref.Params())
			}
		})
	}
}

// gradDiff names the first parameter whose gradient bits differ.
func gradDiff(net Net, got, want [][]uint32) string {
	for i, p := range net.Params() {
		if !reflect.DeepEqual(got[i], want[i]) {
			return fmt.Sprintf("%s's gradient differs from an inline step's", p.Name)
		}
	}
	return "gradients differ"
}
