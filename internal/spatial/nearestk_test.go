package spatial

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
)

// NearestK is held to a sort under both forms, and the AVX2 kernel to the
// Go loop bit for bit, at every k its bound distinguishes (one to four
// slots a lane), at lengths that leave every ragged last block, with and
// without a skipped position, on spread, tied, repeated and overflowing
// candidates.

// pointsOf draws n candidates of one of candidates' shapes, as points.
func pointsOf(rng *rand.Rand, n, shape int) []geom.Point3 {
	x, y, z := candidates(rng, n, shape)
	pts := make([]geom.Point3, n)
	for i := range pts {
		pts[i] = geom.Point3{X: x[i], Y: y[i], Z: z[i]}
	}
	return pts
}

// nearestKSorted is NearestK's contract computed the slow way: every
// (distance, position) pair but the skipped one, sorted, the first k.
func nearestKSorted(q geom.Point3, pts []geom.Point3, k, skip int) (idx []int, d []float64) {
	type pair struct {
		d   float64
		pos int
	}
	var all []pair
	for i, p := range pts {
		if i != skip {
			all = append(all, pair{q.DistSq(p), i})
		}
	}
	sort.Slice(all, func(a, b int) bool {
		return all[a].d < all[b].d || all[a].d == all[b].d && all[a].pos < all[b].pos
	})
	for _, p := range all[:k] {
		idx, d = append(idx, p.pos), append(d, p.d)
	}
	return idx, d
}

// runNearestK calls NearestK with scratch exactly as long as its contract
// asks.
func runNearestK(q geom.Point3, pts []geom.Point3, k, skip int) (idx []int, d []float64) {
	n4 := (len(pts) + 3) &^ 3
	idx, d = make([]int, k), make([]float64, k)
	NearestK(&q, pts, skip, make([]float64, n4), make([]int32, n4), idx, d)
	return idx, d
}

// nearestKForms runs f once with NearestK's Go loop alone and once with the
// AVX2 kernel in front of it where the host has it.
func nearestKForms(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	forms := []bool{false}
	if nearestKVec {
		forms = append(forms, true)
	}
	old := nearestKVec
	t.Cleanup(func() { nearestKVec = old })
	for _, vec := range forms {
		nearestKVec = vec
		name := "avx2=false"
		if vec {
			name = "avx2=true"
		}
		t.Run(name, f)
	}
	nearestKVec = old
}

// TestNearestKMatchesSort holds both forms to a sort.
func TestNearestKMatchesSort(t *testing.T) {
	nearestKForms(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		for shape := 0; shape < 4; shape++ {
			for n := 1; n <= 40; n++ {
				pts := pointsOf(rng, n, shape)
				q := geom.Point3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: float64(rng.Intn(2))}
				if shape == 1 {
					q = geom.Point3{X: 1, Y: 1, Z: 0.5}
				}
				for _, skip := range []int{-1, rng.Intn(n)} {
					cands := n
					if skip >= 0 {
						cands--
					}
					for k := 1; k <= min(18, cands); k++ {
						wantI, wantD := nearestKSorted(q, pts, k, skip)
						gotI, gotD := runNearestK(q, pts, k, skip)
						if !reflect.DeepEqual(gotI, wantI) || !sameBits(gotD, wantD) {
							t.Fatalf("shape %d, n=%d, k=%d, skip %d: %v %v, want %v %v",
								shape, n, k, skip, gotI, gotD, wantI, wantD)
						}
					}
				}
			}
		}
	})
}

// TestNearestKVectorMatchesGo holds the kernel to the Go loop on the same
// inputs, bit for bit, whenever it answers: k from 1 to 16, n from 1 past a
// scan level's 256, not a multiple of 4, with ties and duplicates. It must
// answer every case of at most 64 points, ties and overflows included, and
// a case of distinct distances at any n.
func TestNearestKVectorMatchesGo(t *testing.T) {
	if !nearestKVec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(43))
	answered := 0
	for shape := 0; shape < 4; shape++ {
		for n := 1; n <= 300; n += 1 + n/16 {
			pts := pointsOf(rng, n, shape)
			q := geom.Point3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			n4 := (n + 3) &^ 3
			for k := 1; k <= min(16, n-1); k++ {
				skip := -1
				if k%2 == 0 {
					skip = rng.Intn(n)
				}
				wantI, wantD := make([]int, k), make([]float64, k)
				nearestKGo(q, pts, skip, wantI, wantD)
				gotI, gotD := make([]int, k), make([]float64, k)
				ok := nearestKAVX2(&q, &pts[0], n, k, skip, &make([]float64, n4)[0], &make([]int32, n4)[0], &gotI[0], &gotD[0])
				if !ok {
					if shape == 0 || n <= 64 {
						t.Fatalf("shape %d, n=%d, k=%d: the kernel refused", shape, n, k)
					}
					continue
				}
				answered++
				if !reflect.DeepEqual(gotI, wantI) || !sameBits(gotD, wantD) {
					t.Fatalf("shape %d, n=%d, k=%d, skip %d: kernel %v %v; Go %v %v", shape, n, k, skip, gotI, gotD, wantI, wantD)
				}
			}
		}
	}
	if answered == 0 {
		t.Fatal("the kernel answered nothing")
	}
}

// TestNearestKNaN: a NaN distance anywhere, a ragged last block included,
// gets the Go loop's answer, and the kernel refuses it.
func TestNearestKNaN(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	for n := 2; n <= 13; n++ {
		for at := 0; at < n; at++ {
			pts := pointsOf(rng, n, 0)
			pts[at].Y = math.NaN()
			q := geom.Point3{}
			wantI, wantD := make([]int, 1), make([]float64, 1)
			nearestKGo(q, pts, -1, wantI, wantD)
			nearestKForms(t, func(t *testing.T) {
				if idx, d := runNearestK(q, pts, 1, -1); !reflect.DeepEqual(idx, wantI) || !sameBits(d, wantD) {
					t.Fatalf("n=%d, NaN at %d: %v %v, want %v %v", n, at, idx, d, wantI, wantD)
				}
			})
			if nearestKVec {
				n4 := (n + 3) &^ 3
				idx, d := make([]int, 1), make([]float64, 1)
				if nearestKAVX2(&q, &pts[0], n, 1, -1, &make([]float64, n4)[0], &make([]int32, n4)[0], &idx[0], &d[0]) {
					t.Fatalf("n=%d, NaN at %d: the kernel answered", n, at)
				}
			}
		}
	}
}
