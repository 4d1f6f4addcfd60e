package spatial

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
)

// TestNearestKKernelStaysInsideItsOperands runs nearestKAVX2 with the
// points, the scratch and the results each flush against an unmapped page,
// at its end and then at its start, at lengths that leave every ragged last
// block and at one to four slots a lane: the points are n long, the scratch
// n rounded up to a multiple of 4, the results k, as the contract says.
func TestNearestKKernelStaysInsideItsOperands(t *testing.T) {
	if !nearestKVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(47))
	for n := 2; n <= 17; n++ {
		for _, k := range []int{1, 3, 8, 13} {
			if k >= n {
				continue
			}
			for _, atEnd := range []bool{true, false} {
				pts := pointsOf(rng, n, 0)
				q := geom.Point3{X: 0.1, Y: -0.2, Z: 0.3}
				skip := n / 2
				wantI, wantD := make([]int, k), make([]float64, k)
				nearestKGo(q, pts, skip, wantI, wantD)
				n4 := (n + 3) &^ 3
				gp := guarded[geom.Point3](t, n, atEnd)
				copy(gp, pts)
				dist, hit := guarded[float64](t, n4, atEnd), guarded[int32](t, n4, atEnd)
				idx, d := guarded[int](t, k, atEnd), guarded[float64](t, k, atEnd)
				if !nearestKAVX2(&q, &gp[0], n, k, skip, &dist[0], &hit[0], &idx[0], &d[0]) {
					t.Fatalf("n=%d, k=%d: the kernel refused", n, k)
				}
				if !reflect.DeepEqual(append([]int{}, idx...), wantI) || !sameBits(d, wantD) {
					t.Fatalf("n=%d, k=%d between guard pages (at end %v): %v %v; want %v %v", n, k, atEnd, idx, d, wantI, wantD)
				}
			}
		}
	}
}
