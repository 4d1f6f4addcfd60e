package core

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestFanOutMatchesSerial runs both window branches, the pure index pick and
// the ranked window, over enough queries to fan out, and requires the serial
// result at two and four workers. scripts/ci.sh runs it under the race
// detector: no other test there fans out the index pick.
func TestFanOutMatchesSerial(t *testing.T) {
	pts := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 4096, Seed: 5}).Points
	queryPos := make([]int, len(pts))
	for i := range queryPos {
		queryPos[i] = i
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, w := range []WindowSearcher{{}, {W: 24}} {
		runtime.GOMAXPROCS(1)
		want, err := w.SearchPositions(pts, queryPos, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, procs := range []int{2, 4} {
			runtime.GOMAXPROCS(procs)
			got, err := w.SearchPositions(pts, queryPos, 8)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("W=%d, GOMAXPROCS %d: neighbors differ from the serial search", w.W, procs)
			}
		}
	}
}
