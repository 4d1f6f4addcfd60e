package neighbor

import (
	"runtime"
	"slices"
	"testing"

	"repro/internal/geom"
)

// TestFanOutMatchesSerial runs the exact kNN, the ball query and the PCA
// normals over enough queries to fan out, and requires the serial result at
// two and four workers. scripts/ci.sh runs it under the race detector: no
// other test there fans out the normals.
func TestFanOutMatchesSerial(t *testing.T) {
	pts := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 2500, Seed: 7}).Points
	const k = 8
	run := func() (knn, ball []int, normals []geom.Point3) {
		knn, err := BruteKNN{}.Search(pts, pts, k)
		if err != nil {
			t.Fatal(err)
		}
		ball, err = BallQuery{R: 0.1}.Search(pts, pts, k)
		if err != nil {
			t.Fatal(err)
		}
		normals, err = NormalsFromNeighbors(pts, knn, k)
		if err != nil {
			t.Fatal(err)
		}
		return knn, ball, normals
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(1)
	wantKNN, wantBall, wantNormals := run()
	for _, procs := range []int{2, 4} {
		runtime.GOMAXPROCS(procs)
		knn, ball, normals := run()
		if !slices.Equal(knn, wantKNN) || !slices.Equal(ball, wantBall) || !slices.Equal(normals, wantNormals) {
			t.Errorf("GOMAXPROCS %d: results differ from the serial run", procs)
		}
	}
}
