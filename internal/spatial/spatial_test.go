package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/sample"
)

// Identity with the O(nN) oracles is this package's whole contract, so every
// test here is a comparison: reflect.DeepEqual on indexes, == on weights.

// clouds are the level shapes the comparisons run over. scene is what
// pipeline.Frame hands the model for W1 (the S3DIS-style room); the rest are
// there for what they do to ties and to the grid: a lattice ties distances
// en masse, identical and clumped points tie all of them, collinear and
// coplanar levels have axes of zero extent.
var clouds = []struct {
	name string
	gen  func(n int, rng *rand.Rand) []geom.Point3
}{
	{"scene", func(n int, rng *rand.Rand) []geom.Point3 {
		return geom.GenerateScene(geom.SceneOptions{N: n, Seed: rng.Int63()}).Points
	}},
	{"noise", func(n int, rng *rand.Rand) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: rng.Float64(), Y: 3 * rng.Float64(), Z: rng.NormFloat64()}
		}
		return pts
	}},
	{"lattice", func(n int, rng *rand.Rand) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: float64(rng.Intn(6)), Y: float64(rng.Intn(6)), Z: float64(rng.Intn(6))}
		}
		return pts
	}},
	{"identical", func(n int, rng *rand.Rand) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: 1.5, Y: -2, Z: 7}
		}
		return pts
	}},
	{"clumps", func(n int, rng *rand.Rand) []geom.Point3 {
		sites := make([]geom.Point3, 5)
		for i := range sites {
			sites[i] = geom.Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
		}
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = sites[rng.Intn(len(sites))]
		}
		return pts
	}},
	{"collinear", func(n int, rng *rand.Rand) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: rng.Float64() * 10, Y: 4, Z: -1}
		}
		return pts
	}},
	{"coplanar", func(n int, rng *rand.Rand) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: rng.Float64(), Y: 0.25, Z: rng.Float64() * 2}
		}
		return pts
	}},
}

// sizes straddle the scan cut-off. Largest first: every smaller level then
// runs in storage a larger one left behind, and the last one grows back.
var sizes = []int{8192, 2048, 513, 512, 511, 31, 7, 3, 2, 1, 2048}

// forceGrid lowers the cut-off to 0 for the rest of the test, so that even
// tiny levels build a grid.
func forceGrid(t testing.TB) {
	old := SetScanBelow(0)
	t.Cleanup(func() { SetScanBelow(old) })
}

// queriesFor mixes level points (what an SA module asks about) with points
// off the level, some of them outside its box (what an FP module asks about).
func queriesFor(pts []geom.Point3, n int, rng *rand.Rand) []geom.Point3 {
	qs := make([]geom.Point3, n)
	for i := range qs {
		p := pts[rng.Intn(len(pts))]
		switch i % 3 {
		case 1:
			p = p.Add(geom.Point3{X: rng.NormFloat64() * 0.05, Y: rng.NormFloat64() * 0.05, Z: rng.NormFloat64() * 0.05})
		case 2:
			p = p.Add(geom.Point3{X: rng.NormFloat64() * 3, Y: rng.NormFloat64() * 3, Z: rng.NormFloat64() * 3})
		}
		qs[i] = p
	}
	return qs
}

// The four differs run one query against its oracle and say what differed,
// "" when nothing did.

func diffFPS(ix *Index, pts []geom.Point3, n int) string {
	want, err1 := sample.FPSIndexes(pts, n, 0)
	got, err2 := ix.FPS(n, nil)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("FPS(%d) of %d: errors %v / %v, first difference at pick %d", n, len(pts), err1, err2, firstDiff(got, want))
	}
	return ""
}

func diffKNN(ix *Index, pts, qs []geom.Point3, k int) string {
	want, err1 := neighbor.BruteKNN{}.Search(pts, qs, k)
	got, err2 := ix.KNN(qs, k)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
		i := firstDiff(got, want)
		return fmt.Sprintf("KNN(k=%d) of %d: errors %v / %v, first difference at query %d slot %d", k, len(pts), err1, err2, i/k, i%k)
	}
	return ""
}

func diffBall(ix *Index, pts, qs []geom.Point3, r float64, k int) string {
	want, err1 := neighbor.BallQuery{R: r}.Search(pts, qs, k)
	got, err2 := ix.Ball(qs, r, k)
	if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
		i := firstDiff(got, want)
		return fmt.Sprintf("Ball(r=%v, k=%d) of %d: errors %v / %v, first difference at query %d slot %d", r, k, len(pts), err1, err2, i/k, i%k)
	}
	return ""
}

func diffThreeNN(ix *Index, pts, targets []geom.Point3) string {
	want, err1 := sample.ThreeNN{}.Plan(targets, pts)
	got, err2 := ix.ThreeNN(targets)
	if err1 != nil || err2 != nil {
		return fmt.Sprintf("ThreeNN of %d: errors %v / %v", len(pts), err1, err2)
	}
	if got.K != want.K || !reflect.DeepEqual(got.Indexes, want.Indexes) {
		return fmt.Sprintf("ThreeNN of %d: K %d / %d, first index difference at %d", len(pts), got.K, want.K, firstDiff(got.Indexes, want.Indexes))
	}
	for i, w := range want.Weights {
		if got.Weights[i] != w {
			return fmt.Sprintf("ThreeNN of %d: weight %d = %v, want %v", len(pts), i, got.Weights[i], w)
		}
	}
	return ""
}

// compare runs all four queries on one level against the oracles, over pick
// counts, k and radii; it trims the counts where the oracle itself is the
// cost.
func compare(t testing.TB, ix *Index, pts []geom.Point3, rng *rand.Rand) {
	t.Helper()
	N := len(pts)
	ix.Reset(pts)
	fail := func(msg string) {
		t.Helper()
		if msg != "" {
			t.Fatal(msg)
		}
	}
	for _, n := range []int{1, (N + 3) / 4, N} {
		if N > 2048 && n == N {
			continue // 8192 picks of 8192: the oracle alone is seconds under -race
		}
		fail(diffFPS(ix, pts, n))
	}
	for _, k := range []int{1, 3, 8, N, N + 5} {
		nq := 64
		if k >= 512 {
			nq = 3 // a top-k that long is an insertion sort per query
		}
		if k > 2048 {
			continue // and one of 8192 is minutes of it under -race
		}
		qs := queriesFor(pts, nq, rng)
		fail(diffKNN(ix, pts, qs, k))
		// Radii from "holds nothing" to "holds everything": both sides of
		// the grid-or-scan choice, and the empty-ball fallback.
		for _, r := range []float64{1e-9, 0.03, 0.2, 1, 50} {
			fail(diffBall(ix, pts, qs, r, k))
		}
	}
	fail(diffThreeNN(ix, pts, queriesFor(pts, 257, rng)))
}

// cellOrder is a copy of the built index's level in its cell order.
func cellOrder(ix *Index) []geom.Point3 {
	pts := make([]geom.Point3, len(ix.perm))
	for pos, i := range ix.perm {
		pts[pos] = ix.pts[i]
	}
	return pts
}

func firstDiff(a, b []int) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestQueriesMatchOracles is the table: every cloud shape at every size, once
// with the cut-off where it ships and once with the levels below it forced
// through the grid too. One Index serves a whole column.
func TestQueriesMatchOracles(t *testing.T) {
	for _, forced := range []bool{false, true} {
		for _, c := range clouds {
			t.Run(fmt.Sprintf("%s/forced=%v", c.name, forced), func(t *testing.T) {
				shipped := scanBelow
				if forced {
					forceGrid(t)
				}
				rng := rand.New(rand.NewSource(17))
				var ix Index
				for _, n := range sizes {
					if testing.Short() && n > 2048 || forced && n > shipped+1 {
						continue // above the cut-off forcing changes nothing
					}
					pts := c.gen(n, rng)
					compare(t, &ix, pts, rng)
					if wantScan := n < scanBelow || n < 2; ix.scan != wantScan {
						t.Fatalf("%d points: scan=%v, want %v", n, ix.scan, wantScan)
					}
				}
			})
		}
	}
}

// TestSortedLevelsMatchOracles covers the orders the model really hands an
// exact site besides raw: a Morton-like sorted level, and a level that is
// the FPS picks of another (far-apart points first).
func TestSortedLevelsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pts := clouds[0].gen(4096, rng)
	picks, err := sample.FPSIndexes(pts, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	picked := make([]geom.Point3, len(picks))
	for i, p := range picks {
		picked[i] = pts[p]
	}
	var ix Index
	compare(t, &ix, picked, rng)
	ix.Reset(pts)
	if _, err := ix.FPS(8, nil); err != nil { // builds the grid
		t.Fatal(err)
	}
	compare(t, &ix, cellOrder(&ix), rng)
}

// TestApproxFPSMatchesBucketFPS is the degradation rung's sampler through the
// index against sample.BucketFPS over the level as it stands, pick for pick,
// on every cloud shape at sizes on both sides of the scan cut-off and with
// the grid forced, one Index across sizes.
func TestApproxFPSMatchesBucketFPS(t *testing.T) {
	for _, forced := range []bool{false, true} {
		if forced {
			forceGrid(t)
		}
		for _, c := range clouds {
			rng := rand.New(rand.NewSource(19))
			var ix Index
			var got []int
			for _, N := range []int{2048, 513, 100, 7, 1} {
				pts := c.gen(N, rng)
				ix.Reset(pts)
				for _, q := range []float64{0.5, 0.25, 1} {
					for _, n := range []int{1, (N + 3) / 4, (N + 1) / 2} {
						want, err1 := (&sample.BucketFPS{Frac: q}).SampleInto(pts, n, nil)
						var err2 error
						got, err2 = ix.ApproxFPS(q, n, got)
						if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
							t.Fatalf("%s forced=%v: ApproxFPS(%v, %d) of %d: errors %v / %v, first difference at pick %d",
								c.name, forced, q, n, N, err1, err2, firstDiff(got, want))
						}
					}
				}
			}
		}
	}
}

// TestFanOutMatchesOracles asks enough queries at once for the searches to
// split them across workers (the tables above stay under that threshold),
// at several worker counts: under -race this is the check that the workers
// share nothing but the frozen index.
func TestFanOutMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := clouds[0].gen(3000, rng)
	qs := queriesFor(pts, 5000, rng)
	wantN, _ := neighbor.BruteKNN{}.Search(pts, qs, 8)
	wantB, _ := neighbor.BallQuery{R: 0.15}.Search(pts, qs, 8)
	wantP, _ := sample.ThreeNN{}.Plan(qs, pts)
	var ix Index
	for _, procs := range []int{1, 2, 3, 8} {
		old := runtime.GOMAXPROCS(procs)
		ix.Reset(pts)
		gotN, err1 := ix.KNN(qs, 8)
		gotB, err2 := ix.Ball(qs, 0.15, 8)
		gotP, err3 := ix.ThreeNN(qs)
		runtime.GOMAXPROCS(old)
		if err1 != nil || err2 != nil || err3 != nil {
			t.Fatal(err1, err2, err3)
		}
		if !reflect.DeepEqual(gotN, wantN) || !reflect.DeepEqual(gotB, wantB) || !reflect.DeepEqual(gotP, wantP) {
			t.Fatalf("GOMAXPROCS=%d: KNN %d, Ball %d, ThreeNN %d (first differing entry)", procs,
				firstDiff(gotN, wantN), firstDiff(gotB, wantB), firstDiff(gotP.Indexes, wantP.Indexes))
		}
	}
}

// TestQuickQueriesMatchOracles draws level size, shape, k and radius at
// random, grid forced, one Index across all draws.
func TestQuickQueriesMatchOracles(t *testing.T) {
	forceGrid(t)
	var ix Index
	prop := func(seed int64, size uint16, shape, kk uint8, rr uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		N := 1 + int(size)%700
		pts := clouds[int(shape)%len(clouds)].gen(N, rng)
		return agrees(&ix, pts, queriesFor(pts, 16, rng), 1+int(kk)%(N+6), 1+N/3, float64(rr%2000+1)/1000) == ""
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// agrees is compare for one (k, n, r) draw, returning what differed.
func agrees(ix *Index, pts, qs []geom.Point3, k, n int, r float64) string {
	ix.Reset(pts)
	for _, msg := range []string{diffFPS(ix, pts, n), diffKNN(ix, pts, qs, k), diffBall(ix, pts, qs, r, k), diffThreeNN(ix, pts, qs)} {
		if msg != "" {
			return msg
		}
	}
	return ""
}

// FuzzQueriesMatchOracles builds a level and its queries from raw bytes:
// coordinates on a coarse lattice, so that ties, duplicates and degenerate
// axes are the common case rather than the rare one.
func FuzzQueriesMatchOracles(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 1, 1, 2, 2, 2, 9, 9, 9}, uint8(3), uint8(40))
	f.Add([]byte{5, 5, 5, 5, 5, 5, 5, 5, 5}, uint8(8), uint8(1))
	f.Add([]byte{1, 0, 0, 2, 0, 0, 3, 0, 0, 4, 0, 0, 200, 0, 0}, uint8(2), uint8(255))
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"), uint8(5), uint8(90))
	f.Fuzz(func(t *testing.T, raw []byte, k, r uint8) {
		if len(raw) < 3 || len(raw) > 3*400 {
			return
		}
		forceGrid(t)
		pts := make([]geom.Point3, len(raw)/3)
		for i := range pts {
			pts[i] = geom.Point3{X: float64(raw[3*i] % 16), Y: float64(raw[3*i+1] % 16), Z: float64(raw[3*i+2]%16) / 4}
		}
		qs := make([]geom.Point3, 0, 2*len(pts))
		for i, p := range pts {
			qs = append(qs, p, p.Add(geom.Point3{X: float64(i%5) - 2.5, Y: 0.5, Z: float64(raw[i]) / 64}))
		}
		var ix Index
		if msg := agrees(&ix, pts, qs, 1+int(k)%12, 1+len(pts)/2, float64(r)/16+0.01); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestOddInputs pins what happens off the contract's main road: errors, and
// coordinates a grid cannot be laid over.
func TestOddInputs(t *testing.T) {
	forceGrid(t)
	var ix Index
	if _, err := ix.KNN([]geom.Point3{{}}, 1); err != neighbor.ErrNoPoints {
		t.Fatalf("KNN on an unbound index: %v", err)
	}
	if _, err := ix.ThreeNN([]geom.Point3{{}}); err != sample.ErrNoSources {
		t.Fatalf("ThreeNN on an unbound index: %v", err)
	}
	if _, err := ix.FPS(1, nil); err == nil {
		t.Fatal("FPS on an unbound index: want error")
	}
	rng := rand.New(rand.NewSource(3))
	pts := clouds[1].gen(600, rng)
	ix.Reset(pts)
	if _, err := ix.KNN(pts[:1], 0); err == nil {
		t.Fatal("k=0: want error")
	}
	if _, err := ix.Ball(pts[:1], 0, 4); err == nil {
		t.Fatal("r=0: want error")
	}
	if _, err := ix.FPS(601, nil); err == nil {
		t.Fatal("more picks than points: want error")
	}

	// Queries no cell can be computed for take the scan, query by query.
	qs := []geom.Point3{{X: math.NaN()}, {Y: math.Inf(1)}, {X: 1e200, Y: -1e200}, pts[7]}
	want, _ := neighbor.BruteKNN{}.Search(pts, qs, 4)
	got, err := ix.KNN(qs, 4)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("non-finite queries: %v\n got %v\nwant %v", err, got, want)
	}
	wantB, _ := neighbor.BallQuery{R: 0.1}.Search(pts, qs, 4)
	gotB, err := ix.Ball(qs, 0.1, 4)
	if err != nil || !reflect.DeepEqual(gotB, wantB) {
		t.Fatalf("non-finite ball queries: %v\n got %v\nwant %v", err, gotB, wantB)
	}

	// A level with a non-finite point gets no grid at all.
	bad := append([]geom.Point3(nil), pts...)
	bad[300].Z = math.Inf(-1)
	ix.Reset(bad)
	want, _ = neighbor.BruteKNN{}.Search(bad, pts[:9], 4)
	got, err = ix.KNN(pts[:9], 4)
	if err != nil || !ix.scan || !reflect.DeepEqual(got, want) {
		t.Fatalf("non-finite level: err=%v scan=%v", err, ix.scan)
	}
}

// TestSteadyStateAllocations: once an Index has seen a level size, another
// level of that size costs the results and the fan-out's goroutines, nothing
// in the index itself. FPS reuses its output, so it costs nothing at all.
func TestSteadyStateAllocations(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	pts := clouds[0].gen(2048, rng)
	qs := queriesFor(pts, 512, rng) // below the fan-out threshold: one worker, no goroutines
	var ix Index
	var sel []int
	frame := func() {
		ix.Reset(pts)
		var err error
		if sel, err = ix.FPS(512, sel); err != nil {
			t.Fatal(err)
		}
		if _, err = ix.KNN(qs, 8); err != nil {
			t.Fatal(err)
		}
		if _, err = ix.Ball(qs, 0.05, 8); err != nil {
			t.Fatal(err)
		}
		if _, err = ix.ThreeNN(qs); err != nil {
			t.Fatal(err)
		}
	}
	frame()
	// KNN and Ball: the result and the fan-out closure each; ThreeNN: the
	// plan, its two arrays and the closure.
	if got := testing.AllocsPerRun(5, frame); got > 8 {
		t.Fatalf("steady-state frame allocates %v times, want ≤ 8 (results and closures only)", got)
	}
}
