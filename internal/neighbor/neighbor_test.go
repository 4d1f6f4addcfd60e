package neighbor

import (
	"math"
	"sort"
	"testing"

	"repro/internal/geom"
)

// fig10Points is the cloud of the paper's Fig. 10 worked example (same five
// points as Fig. 8).
func fig10Points() []geom.Point3 {
	return []geom.Point3{
		{X: 3, Y: 6, Z: 2}, // P0
		{X: 1, Y: 3, Z: 1}, // P1
		{X: 4, Y: 3, Z: 2}, // P2
		{X: 0, Y: 0, Z: 0}, // P3
		{X: 5, Y: 1, Z: 0}, // P4
	}
}

func TestPaperWorkedExampleFig10aBallQuery(t *testing.T) {
	// Fig. 10(a): searching 3 neighbors of P2 with (squared) radius 11
	// returns P0, P1 and P4 (squared distances 10, 10, 9 ≤ 11; P3 at 29 is
	// outside). The query point itself (distance 0) also qualifies, so with
	// k=4 the ball contains {P0, P1, P2, P4}.
	pts := fig10Points()
	out, err := BallQuery{R: math.Sqrt(11)}.Search(pts, []geom.Point3{pts[2]}, 4)
	if err != nil {
		t.Fatal(err)
	}
	got := append([]int(nil), out...)
	sort.Ints(got)
	want := []int{0, 1, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ball query = %v, want %v", got, want)
		}
	}
}

func TestBruteKNNExactOrder(t *testing.T) {
	pts := fig10Points()
	out, err := BruteKNN{}.Search(pts, []geom.Point3{pts[2]}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Ascending by distance from P2: P2 (0), P4 (9), then P0/P1 (both 10).
	if out[0] != 2 || out[1] != 4 {
		t.Fatalf("kNN order = %v", out)
	}
	rest := []int{out[2], out[3]}
	sort.Ints(rest)
	if rest[0] != 0 || rest[1] != 1 {
		t.Fatalf("kNN tail = %v, want {0,1}", rest)
	}
}

func TestSearchersAgreeOnKNN(t *testing.T) {
	cloud := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 300, DensitySkew: 0.6, Seed: 21})
	queries := cloud.Points[:40]
	k := 5
	exact, err := BruteKNN{}.Search(cloud.Points, queries, k)
	if err != nil {
		t.Fatal(err)
	}
	// A ball whose radius is the exact k-th neighbor distance holds exactly
	// the k nearest points, so the two reference searchers must agree.
	for q := range queries {
		kth := cloud.Points[exact[q*k+k-1]]
		ball := BallQuery{R: math.Sqrt(queries[q].DistSq(kth)) * (1 + 1e-12)}
		got, err := ball.Search(cloud.Points, queries[q:q+1], k)
		if err != nil {
			t.Fatalf("%s: %v", ball.Name(), err)
		}
		assertSameNeighborSets(t, ball.Name(), cloud.Points, queries[q:q+1], got, exact[q*k:(q+1)*k], k)
	}
}

// assertSameNeighborSets compares by distance multisets (ties may be broken
// differently by different searchers).
func assertSameNeighborSets(t *testing.T, name string, pts, queries []geom.Point3, got, want []int, k int) {
	t.Helper()
	for q := range queries {
		gd := distSet(pts, queries[q], got[q*k:(q+1)*k])
		wd := distSet(pts, queries[q], want[q*k:(q+1)*k])
		for i := range gd {
			if math.Abs(gd[i]-wd[i]) > 1e-9 {
				t.Fatalf("%s: query %d distance multiset %v != %v", name, q, gd, wd)
			}
		}
	}
}

func distSet(pts []geom.Point3, q geom.Point3, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, n := range idx {
		out[i] = q.DistSq(pts[n])
	}
	sort.Float64s(out)
	return out
}

func TestBallQueryPadding(t *testing.T) {
	pts := []geom.Point3{{X: 0}, {X: 100}}
	// Radius covers only the first point; k=3 must pad with it.
	out, err := BallQuery{R: 1}.Search(pts, []geom.Point3{{X: 0.1}}, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range out {
		if n != 0 {
			t.Fatalf("padding picked %v, want all 0", out)
		}
	}
}

func TestBallQueryEmptyBallFallsBackToNearest(t *testing.T) {
	pts := []geom.Point3{{X: 5}, {X: 50}}
	out, err := BallQuery{R: 0.001}.Search(pts, []geom.Point3{{X: 0}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range out {
		if n != 0 {
			t.Fatalf("fallback = %v, want nearest point 0", out)
		}
	}
}

func TestSearchErrors(t *testing.T) {
	pts := fig10Points()
	if _, err := (BruteKNN{}).Search(nil, pts, 1); err == nil {
		t.Fatal("empty points: want error")
	}
	if _, err := (BruteKNN{}).Search(pts, pts, 0); err == nil {
		t.Fatal("k=0: want error")
	}
	if _, err := (BallQuery{R: -1}).Search(pts, pts, 1); err == nil {
		t.Fatal("negative radius: want error")
	}
}

func TestKNNWithKLargerThanN(t *testing.T) {
	pts := fig10Points()
	out, err := BruteKNN{}.Search(pts, []geom.Point3{pts[0]}, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 8 {
		t.Fatalf("len = %d, want 8 (padded)", len(out))
	}
	seen := map[int]bool{}
	for _, n := range out {
		seen[n] = true
	}
	if len(seen) != 5 {
		t.Fatalf("padded result covers %d distinct points, want 5", len(seen))
	}
}

func TestDuplicatePointsHandled(t *testing.T) {
	pts := []geom.Point3{{X: 1}, {X: 1}, {X: 1}, {X: 2}}
	for _, s := range []Searcher{BruteKNN{}, BallQuery{R: 0.5}} {
		out, err := s.Search(pts, []geom.Point3{{X: 1}}, 3)
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		for _, n := range out {
			if pts[n].X != 1 {
				t.Fatalf("%s picked the far point among duplicates: %v", s.Name(), out)
			}
		}
	}
}

func TestKNNExcludingSelf(t *testing.T) {
	pts := fig10Points()
	out, err := KNNExcludingSelf(pts, []int{2}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// P2's nearest others: P4 (9), then P0/P1 (both 10).
	if out[0] != 4 {
		t.Fatalf("nearest other = %d, want 4", out[0])
	}
	for _, n := range out {
		if n == 2 {
			t.Fatalf("self returned: %v", out)
		}
	}
	if _, err := KNNExcludingSelf(pts, []int{9}, 2); err == nil {
		t.Fatal("out-of-range query index: want error")
	}
	if _, err := KNNExcludingSelf(nil, []int{0}, 2); err == nil {
		t.Fatal("empty points: want error")
	}
}

func TestKNNExcludingSelfWithDuplicates(t *testing.T) {
	// Self among many zero-distance duplicates must still be excluded and
	// the row padded validly.
	pts := []geom.Point3{{X: 1}, {X: 1}, {X: 1}, {X: 1}, {X: 2}}
	out, err := KNNExcludingSelf(pts, []int{0, 1, 2, 3}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for qi, self := range []int{0, 1, 2, 3} {
		for _, n := range out[qi*2 : (qi+1)*2] {
			if n == self {
				t.Fatalf("query %d returned itself", self)
			}
			if n < 0 || n >= len(pts) {
				t.Fatalf("query %d returned invalid %d", self, n)
			}
		}
	}
}

func TestFalseNeighborRatio(t *testing.T) {
	exact := []int{1, 2, 3, 4, 5, 6}
	approx := []int{1, 2, 9, 4, 8, 7} // 1 wrong of 3, then 2 wrong of 3
	fnr, err := FalseNeighborRatio(approx, exact, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fnr-0.5) > 1e-12 {
		t.Fatalf("FNR = %v, want 0.5", fnr)
	}
	if fnr, _ := FalseNeighborRatio(exact, exact, 3); fnr != 0 {
		t.Fatalf("self FNR = %v, want 0", fnr)
	}
}

func TestFalseNeighborRatioErrors(t *testing.T) {
	if _, err := FalseNeighborRatio([]int{1}, []int{1, 2}, 1); err == nil {
		t.Fatal("length mismatch: want error")
	}
	if _, err := FalseNeighborRatio([]int{1, 2}, []int{1, 2}, 0); err == nil {
		t.Fatal("k=0: want error")
	}
	if _, err := FalseNeighborRatio([]int{1, 2, 3}, []int{1, 2, 3}, 2); err == nil {
		t.Fatal("non-divisible length: want error")
	}
}

func TestRecallAtK(t *testing.T) {
	exact := []int{1, 2, 3}
	approx := []int{1, 2, 9}
	r, err := RecallAtK(approx, exact, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r-2.0/3) > 1e-12 {
		t.Fatalf("recall = %v, want 2/3", r)
	}
}
