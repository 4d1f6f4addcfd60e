package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/geom"
	"repro/internal/sample"
)

// The 3-NN join is held to sample.ThreeNN{}.Plan like every other exact
// query here, under both of best3's forms; best3's Go loop is held to a
// sort, and the AVX2 kernel to the Go loop, bit for bit.

// kernels runs f once with best3's Go loop and once with the AVX2 kernel
// where the host has it.
func kernels(t *testing.T, f func(t *testing.T)) {
	t.Helper()
	forms := []bool{false}
	if best3Vec {
		forms = append(forms, true)
	}
	old := best3Vec
	t.Cleanup(func() { best3Vec = old })
	for _, vec := range forms {
		best3Vec = vec
		t.Run(fmt.Sprintf("avx2=%v", vec), f)
	}
	best3Vec = old
}

// candidates draws n candidates of one of several shapes: spread values,
// a coarse lattice that ties distances in bulk, one repeated point, and
// coordinates large enough for some distances to overflow to +Inf.
func candidates(rng *rand.Rand, n, shape int) (x, y, z []float64) {
	x, y, z = make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		switch shape {
		case 0:
			x[i], y[i], z[i] = rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		case 1:
			x[i], y[i], z[i] = float64(rng.Intn(3)), float64(rng.Intn(3)), float64(rng.Intn(2))
		case 2:
			x[i], y[i], z[i] = 0.25, -1, 3
		case 3:
			x[i], y[i], z[i] = rng.NormFloat64()*1e154, rng.NormFloat64(), float64(rng.Intn(2))*1e155
		}
	}
	return x, y, z
}

// best3Sorted is best3's contract computed the slow way.
func best3Sorted(q geom.Point3, x, y, z []float64) (dist []float64, third float64, hit []int32) {
	dist = make([]float64, len(x))
	for i := range x {
		dist[i] = q.DistSq(geom.Point3{X: x[i], Y: y[i], Z: z[i]})
	}
	sorted := append([]float64(nil), dist...)
	sort.Float64s(sorted)
	third = math.Inf(1)
	if len(sorted) >= 3 {
		third = sorted[2]
	}
	hit = []int32{}
	for i, d := range dist {
		if d <= third {
			hit = append(hit, int32(i))
		}
	}
	return dist, third, hit
}

// runBest3 calls best3 with buffers exactly as long as its contract asks.
func runBest3(q geom.Point3, x, y, z []float64) (dist []float64, third float64, hit []int32) {
	n := len(x)
	dist, hit = make([]float64, n), make([]int32, (n+3)&^3)
	third, hits := best3(&q, x, y, z, dist, hit)
	return dist, third, hit[:hits]
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBest3MatchesSort holds both forms of best3 to a sort, at every length
// that leaves a ragged last block, on every candidate shape.
func TestBest3MatchesSort(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(31))
		for shape := 0; shape < 4; shape++ {
			for n := 1; n <= 70; n++ {
				x, y, z := candidates(rng, n, shape)
				q := geom.Point3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: float64(rng.Intn(2))}
				if shape == 1 {
					q = geom.Point3{X: 1, Y: 1, Z: 0.5}
				}
				wantD, wantT, wantH := best3Sorted(q, x, y, z)
				gotD, gotT, gotH := runBest3(q, x, y, z)
				if !sameBits(gotD, wantD) || math.Float64bits(gotT) != math.Float64bits(wantT) || !reflect.DeepEqual(gotH, wantH) {
					t.Fatalf("shape %d, n=%d: third %v, hits %v; want %v, %v (distances equal: %v)", shape, n, gotT, gotH, wantT, wantH, sameBits(gotD, wantD))
				}
			}
		}
	})
}

// TestBest3VectorMatchesGo holds the kernel to the Go loop on the same
// inputs, bit for bit, including what it leaves in the hit buffer's used
// part.
func TestBest3VectorMatchesGo(t *testing.T) {
	if !best3Vec {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(37))
	for shape := 0; shape < 4; shape++ {
		for n := 1; n <= 260; n += 1 + n/16 {
			x, y, z := candidates(rng, n, shape)
			q := geom.Point3{X: rng.NormFloat64(), Y: rng.NormFloat64(), Z: rng.NormFloat64()}
			wantD, wantH := make([]float64, n), make([]int32, n)
			wantT, wantN := best3Go(q, x, y, z, wantD, wantH)
			gotD, gotH := make([]float64, n), make([]int32, (n+3)&^3)
			gotT, gotN := best3AVX2(&q, &x[0], &y[0], &z[0], n, &gotD[0], &gotH[0])
			if !sameBits(gotD, wantD) || math.Float64bits(gotT) != math.Float64bits(wantT) || gotN != wantN || !reflect.DeepEqual(gotH[:gotN], wantH[:wantN]) {
				t.Fatalf("shape %d, n=%d: kernel third %v, %d hits; Go %v, %d hits", shape, n, gotT, gotN, wantT, wantN)
			}
		}
	}
}

// fallbacks counts the targets of the level's grid join that take the walk,
// the way the join decides it.
func fallbacks(ix *Index, targets []geom.Point3) int {
	if ix.scan {
		return -1
	}
	ix.bin(targets)
	var b block
	lo, count := int32(0), 0
	for _, hi := range ix.tcnt[:len(ix.tcnt)-1] {
		if lo < hi {
			n, f := ix.gather(&b, targets[ix.tord[lo]])
			for _, t := range ix.tord[lo:hi] {
				q := targets[t]
				if n < 3 || !q.IsFinite() {
					count++
				} else if third, _ := best3(&q, b.x[:n], b.y[:n], b.z[:n], b.dist, b.hit); !(third < f.bound(q)) {
					count++
				}
			}
		}
		lo = hi
	}
	return count
}

// joinCases are the level shapes the join's own decisions turn on.
var joinCases = []struct {
	name string
	gen  func(rng *rand.Rand) (sources, targets []geom.Point3)
	// allFallback: every target must take the walk, and the case checks it.
	allFallback bool
}{
	{"duplicates", func(rng *rand.Rand) ([]geom.Point3, []geom.Point3) {
		// Clumps of identical sources: every block's third distance is tied
		// many ways and the level index decides.
		src := clouds[4].gen(1500, rng)
		src = append(src, src[:700]...)
		return src, queriesFor(src, 900, rng)
	}, false},
	{"slab-borders", func(rng *rand.Rand) ([]geom.Point3, []geom.Point3) {
		// A 16-wide integer lattice: the grid's 16 slabs per axis have their
		// borders on the lattice planes, where every source and target sits.
		src := make([]geom.Point3, 2000)
		for i := range src {
			src[i] = geom.Point3{X: float64(rng.Intn(17)), Y: float64(rng.Intn(17)), Z: float64(rng.Intn(17))}
		}
		src[0], src[1] = geom.Point3{}, geom.Point3{X: 16, Y: 16, Z: 16}
		tg := make([]geom.Point3, 1200)
		for i := range tg {
			tg[i] = geom.Point3{X: float64(rng.Intn(33)) / 2, Y: float64(rng.Intn(17)), Z: float64(rng.Intn(33)) / 2}
		}
		return src, tg
	}, false},
	{"zero-extent", func(rng *rand.Rand) ([]geom.Point3, []geom.Point3) {
		// Collinear sources: two axes of one slab, with targets off the line.
		src := clouds[5].gen(1200, rng)
		return src, queriesFor(src, 900, rng)
	}, false},
	{"flat", func(rng *rand.Rand) ([]geom.Point3, []geom.Point3) {
		src := clouds[6].gen(1200, rng)
		return src, queriesFor(src, 900, rng)
	}, false},
	{"outside", func(rng *rand.Rand) ([]geom.Point3, []geom.Point3) {
		// Targets around the source box, clamped into its border cells.
		src := clouds[0].gen(2048, rng)
		tg := queriesFor(src, 1500, rng)
		for i := range tg {
			tg[i] = tg[i].Scale(1.5)
		}
		return src, tg
	}, false},
	{"all-fallback", func(rng *rand.Rand) ([]geom.Point3, []geom.Point3) {
		// Targets far off the box: their nearest sources are far, and the
		// fence across a neighboring slab is near.
		src := clouds[1].gen(1024, rng)
		tg := make([]geom.Point3, 600)
		for i := range tg {
			tg[i] = geom.Point3{X: 1e4 * (1 + rng.Float64()), Y: 3 * rng.Float64(), Z: rng.NormFloat64()}
		}
		return src, tg
	}, true},
	{"scene", func(rng *rand.Rand) ([]geom.Point3, []geom.Point3) {
		// W1's FP3 shape: a scene's FPS quarter onto the scene.
		pts := clouds[0].gen(8192, rng)
		sel, _ := sample.FPSIndexes(pts, 2048, 0)
		return centersOf(pts, sel), pts
	}, false},
}

// TestJoinMatchesOracle runs the join on each shape under both forms of
// best3, and on levels at the scan cut-off and one either side of it.
func TestJoinMatchesOracle(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(41))
		var ix Index
		for _, c := range joinCases {
			src, tg := c.gen(rng)
			ix.Reset(src)
			if msg := diffThreeNN(&ix, src, tg); msg != "" {
				t.Fatalf("%s: %s", c.name, msg)
			}
			if fb := fallbacks(&ix, tg); c.allFallback && fb != len(tg) {
				t.Fatalf("%s: %d of %d targets take the walk, want all", c.name, fb, len(tg))
			}
		}
		for _, n := range []int{scanBelow - 1, scanBelow, scanBelow + 1} {
			for _, c := range clouds {
				src := c.gen(n, rng)
				ix.Reset(src)
				if msg := diffThreeNN(&ix, src, queriesFor(src, 700, rng)); msg != "" {
					t.Fatalf("%s at %d points: %s", c.name, n, msg)
				}
			}
		}
	})
}

// samePlan compares two plans bit for bit: a non-finite target's weights
// are NaN in both, which == would call different.
func samePlan(got, want *sample.InterpPlan) string {
	if got.K != want.K || !reflect.DeepEqual(got.Indexes, want.Indexes) {
		return fmt.Sprintf("K %d / %d, first index difference at %d", got.K, want.K, firstDiff(got.Indexes, want.Indexes))
	}
	for i, w := range want.Weights {
		if math.Float32bits(got.Weights[i]) != math.Float32bits(w) {
			return fmt.Sprintf("weight %d = %v, want %v", i, got.Weights[i], w)
		}
	}
	return ""
}

// TestJoinNonFiniteInputs: a non-finite target takes the walk (or the scan)
// beside finite ones, and a level with a non-finite point is scanned
// without the kernel; each as the oracle has it.
func TestJoinNonFiniteInputs(t *testing.T) {
	kernels(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(43))
		var ix Index
		for _, n := range []int{100, 1000} {
			src := clouds[1].gen(n, rng)
			tg := queriesFor(src, 300, rng)
			tg[3], tg[4], tg[5] = geom.Point3{X: math.NaN()}, geom.Point3{Y: math.Inf(-1)}, geom.Point3{X: 1e200, Z: -1e200}
			for _, bad := range []bool{false, true} {
				if bad {
					src[n/2].Y = math.Inf(1)
				}
				want, err1 := sample.ThreeNN{}.Plan(tg, src)
				got := &sample.InterpPlan{}
				ix.Reset(src)
				err2 := ix.ThreeNNInto(got, tg)
				if err1 != nil || err2 != nil {
					t.Fatal(err1, err2)
				}
				if msg := samePlan(got, want); msg != "" {
					t.Fatalf("%d sources (one non-finite: %v): %s", n, bad, msg)
				}
			}
		}
	})
}
