package pipeline

import (
	"strings"
	"testing"

	"repro/internal/model"
)

// TestForwardRejectsOverflowingSpan: a W3 (DGCNN) cloud scaled by 1e150 is
// finite, but its squared distances reach the searches' 1e300 sentinel, so
// an unchecked forward would group a neighbor index −1. The span check at
// the top of the model's forward rejects it by name in an inference forward
// and in a train-mode forward, under Baseline and S+N, and the net serves
// the next frame as a fresh net does.
func TestForwardRejectsOverflowingSpan(t *testing.T) {
	w, err := WorkloadByID("W3")
	if err != nil {
		t.Fatal(err)
	}
	good, err := Frame(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	wide := good.Clone()
	for i := range wide.Points {
		wide.Points[i] = wide.Points[i].Scale(1e150)
	}
	for _, kind := range []ConfigKind{Baseline, SN} {
		fresh, err := Build(w, kind, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Forward(good, &model.Trace{}, false)
		if err != nil {
			t.Fatal(err)
		}
		net, err := Build(w, kind, smallOpts())
		if err != nil {
			t.Fatal(err)
		}
		if _, err := net.Forward(wide, &model.Trace{}, false); err == nil || !strings.Contains(err.Error(), "diagonal") {
			t.Fatalf("%s: inference Forward got %v, want the span error naming the diagonal", kind, err)
		}
		if _, err := net.Forward(wide, nil, true); err == nil || !strings.Contains(err.Error(), "diagonal") {
			t.Fatalf("%s: train-mode Forward got %v, want the span error naming the diagonal", kind, err)
		}
		got, err := net.Forward(good, &model.Trace{}, false)
		if err != nil {
			t.Fatal(err)
		}
		if !got.Logits.Equal(want.Logits) {
			t.Fatalf("%s: the frame after the errors differs from a fresh net's", kind)
		}
	}
}
