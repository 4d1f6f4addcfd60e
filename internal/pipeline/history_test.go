package pipeline

import (
	"fmt"
	"testing"
)

// TestOutputIndependentOfServingHistory is a metamorphic check on everything
// a net keeps between frames — the tensor workspace, the per-level spatial
// indexes, the samplers' and modules' buffers: one net serves clouds of very
// different sizes back to back, and each output must be bit-equal to what a
// net that has never served anything returns for the same cloud. Scratch
// sized or filled by an earlier, larger frame and not re-initialised for a
// smaller one is what this catches. The sizes put levels on both sides of
// the spatial index's scan cut-off (8192 → levels of 8192, 2048, 512 through
// the grid; 300 → every level by the scan), return to the first size with a
// different cloud, and repeat a size back to back with different clouds.
func TestOutputIndependentOfServingHistory(t *testing.T) {
	sizes := []int{8192, 1024, 300, 8192, 8192, 2048}
	if testing.Short() {
		sizes = []int{2048, 300, 2048, 2048, 600}
	}
	for _, tc := range []struct {
		id   string
		kind ConfigKind
	}{{"W1", Baseline}, {"W1", SN}, {"W3", SN}} {
		t.Run(fmt.Sprintf("%s_%s", tc.id, tc.kind), func(t *testing.T) {
			w, err := WorkloadByID(tc.id)
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{BaseWidth: 4, Seed: 3}
			seasoned, err := Build(w, tc.kind, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, n := range sizes {
				if w.Arch == ArchDGCNN {
					n = n/8 + 40 // its exact search is O(N²·C); the history is what matters
				}
				w.Points = n
				cloud, err := Frame(w, int64(100+i))
				if err != nil {
					t.Fatal(err)
				}
				fresh, err := Build(w, tc.kind, opts)
				if err != nil {
					t.Fatal(err)
				}
				want, err := fresh.Forward(cloud, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				got, err := seasoned.Forward(cloud, nil, false)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Logits.Equal(want.Logits) {
					t.Fatalf("frame %d (%d points): logits differ from a fresh net's", i, n)
				}
			}
		})
	}
}
