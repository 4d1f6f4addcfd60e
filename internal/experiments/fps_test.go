package experiments

import (
	"runtime"
	"testing"

	"repro/internal/geom"
	"repro/internal/metrics"
	"repro/internal/sample"
)

// TestParCoverRadiusMatchesSerial compares the fps experiment's fanned-out
// coverage radius with metrics.CoverageStats' serial one at one, two and four
// workers. scripts/ci.sh runs it under the race detector: it is the stage
// that executes parCoverRadius's parallel.ForWorkers body.
func TestParCoverRadiusMatchesSerial(t *testing.T) {
	cloud := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 6000, Noise: 0.02, DensitySkew: 0.6, Seed: 3})
	sel, err := sample.FPS{}.Sample(cloud, 64)
	if err != nil {
		t.Fatal(err)
	}
	want, err := metrics.CoverageStats(cloud.Points, sel)
	if err != nil {
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		// The square root is monotone and correctly rounded, so the root
		// of the largest square is the largest root, bit for bit.
		if got := parCoverRadius(cloud.Points, sel); got != want.Max {
			t.Errorf("GOMAXPROCS=%d: parCoverRadius = %v, serial max = %v", procs, got, want.Max)
		}
	}
}
