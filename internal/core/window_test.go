package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/sample"
	"repro/internal/spatial"
)

// topKWindow fills idx/d with the k nearest points to p among positions
// [lo, hi) of points (skipping position self) under (DistSq, position),
// ascending: the scan the window searcher's selection must reproduce.
func topKWindow(p geom.Point3, points []geom.Point3, lo, hi, self int, idx []int, d []float64) {
	geom.ClearTopK(idx, d)
	for s := lo; s < hi; s++ {
		if s != self {
			geom.InsertTopK(idx, d, s, p.DistSq(points[s]))
		}
	}
}

// windowByScan is WindowSearcher.SearchPositions computed with topKWindow.
func windowByScan(pts []geom.Point3, queryPos []int, w, k int) []int {
	win := min(max(w, k), len(pts))
	out := make([]int, 0, len(queryPos)*k)
	idx, d := make([]int, k), make([]float64, k)
	for _, p := range queryPos {
		start := clampWindow(p, win, len(pts))
		if win == k {
			for i := 0; i < k; i++ {
				out = append(out, start+i)
			}
			continue
		}
		topKWindow(pts[p], pts, start, start+win, p, idx, d)
		out = append(out, idx...)
	}
	return out
}

// TestWindowSearcherMatchesScan holds the window searcher to the scan of
// each window, index for index, on structurized W1 levels — every position
// a query, so the windows clamped at both ends of the cloud are in — at the
// model's W = 16 and at windows that leave a ragged block, outgrow the
// stack scratch or cover the cloud, for k from 1 to 16 (the kernel's
// range) and beyond, and on a level with duplicate points, whose tied
// distances the kernel ranks by position.
func TestWindowSearcherMatchesScan(t *testing.T) {
	scene := geom.GenerateScene(geom.SceneOptions{N: 1024, Seed: 3})
	dup := geom.GenerateScene(geom.SceneOptions{N: 300, Seed: 4})
	dup.Points = append(dup.Points, dup.Points[:200]...)
	dup.Labels = append(dup.Labels, dup.Labels[:200]...)
	for _, c := range []struct {
		name  string
		cloud *geom.Cloud
	}{{"scene", scene}, {"duplicates", dup}} {
		s, err := Structurize(c.cloud, StructurizeOptions{})
		if err != nil {
			t.Fatal(err)
		}
		pts := s.Cloud.Points
		pos := make([]int, len(pts))
		for i := range pos {
			pos[i] = i
		}
		for _, w := range []int{16, 9, 33, 70, len(pts)} {
			for _, k := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 15, 16, 20} {
				if k >= w || w == len(pts) && k > 8 {
					continue
				}
				t.Run(fmt.Sprintf("%s/W%d/k%d", c.name, w, k), func(t *testing.T) {
					got, err := WindowSearcher{W: w}.SearchPositions(pts, pos, k)
					if err != nil {
						t.Fatal(err)
					}
					if want := windowByScan(pts, pos, w, k); !reflect.DeepEqual(got, want) {
						i := firstDiff(got, want)
						t.Fatalf("query %d: %v, want %v", i/k, got[i/k*k:i/k*k+k], want[i/k*k:i/k*k+k])
					}
				})
			}
		}
	}
}

func firstDiff(a, b []int) int {
	for i := range a {
		if a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestSearchersTakeOverflowingDistances: on a 64-point line at 1e155
// spacing every distance between two points overflows to +Inf. The
// searches start their lists empty, not at a finite sentinel such a
// distance never beats, so every list holds real indexes — the lowest
// ones, all distances tied — and no −1.
func TestSearchersTakeOverflowingDistances(t *testing.T) {
	const n, k = 64, 8
	line := make([]geom.Point3, n)
	for i := range line {
		line[i] = geom.Point3{X: float64(i) * 1e155}
	}
	real := func(t *testing.T, what string, idx []int) {
		t.Helper()
		for i, v := range idx {
			if v < 0 || v >= n {
				t.Fatalf("%s: entry %d is %d", what, i, v)
			}
		}
	}
	pos := make([]int, n)
	for i := range pos {
		pos[i] = i
	}
	nbr, err := WindowSearcher{W: 16}.SearchPositions(line, pos, k)
	if err != nil {
		t.Fatal(err)
	}
	real(t, "window", nbr)
	// Query 30's window is positions 22…37; every other point ties at
	// +Inf, so the lowest positions but 30 itself win.
	if want := []int{22, 23, 24, 25, 26, 27, 28, 29}; !reflect.DeepEqual(nbr[30*k:31*k], want) {
		t.Fatalf("window of 30: %v, want %v", nbr[30*k:31*k], want)
	}
	var plan sample.InterpPlan
	if err := (MortonInterp{}).PlanStructurizedInto(&plan, line, []int{0, 16, 32, 48}); err != nil {
		t.Fatal(err)
	}
	real(t, "Morton interpolation", int32s(plan.Indexes))
	three, err := sample.ThreeNN{}.Plan(line, line[:16])
	if err != nil {
		t.Fatal(err)
	}
	real(t, "3-NN", int32s(three.Indexes))
	brute, err := neighbor.BruteKNN{}.Search(line, line, k)
	if err != nil {
		t.Fatal(err)
	}
	real(t, "brute kNN", brute)
	var ix spatial.Index
	ix.Reset(line)
	knn, err := ix.KNN(line, k)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(knn, brute) {
		t.Fatal("index kNN differs from brute kNN")
	}
	ix.Reset(line[:16])
	if err := ix.ThreeNNInto(&plan, line); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan.Indexes, three.Indexes) {
		t.Fatal("index 3-NN differs from the 3-NN scan")
	}
}

func int32s(v []int32) []int {
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// raceEnabled is set under the race detector, whose sync.Pool drops a
// quarter of what is put back, so a pooled buffer is remade at random.
var raceEnabled bool

// TestWindowSearchAllocatesNothing: a warm window search into a kept list
// allocates nothing — the job is pooled and the scratch on the stack, or
// pooled past maxStackWin — at the model's W = 16 and at W = 100, for
// positions and for every point, under the fan-out threshold (a fan-out's
// goroutines are the parallel package's). Under the race detector the W = 100
// search is left out: its pooled scratch is four slices, remade whenever the
// pool drops it.
func TestWindowSearchAllocatesNothing(t *testing.T) {
	s, err := Structurize(geom.GenerateScene(geom.SceneOptions{N: 256, Seed: 5}), StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	pts := s.Cloud.Points
	queries := []int{0, 3, 100, 255}
	var out []int
	search := func() {
		if out, err = (WindowSearcher{W: 16}).SearchPositionsInto(out, pts, queries, 8); err != nil {
			t.Fatal(err)
		}
		if out, err = (WindowSearcher{W: 16}).SearchAllInto(out, pts[:64], 8); err != nil {
			t.Fatal(err)
		}
		if raceEnabled {
			return
		}
		if out, err = (WindowSearcher{W: 100}).SearchPositionsInto(out, pts, queries, 8); err != nil {
			t.Fatal(err)
		}
	}
	search()
	if got := testing.AllocsPerRun(20, search); got != 0 {
		t.Fatalf("a warm window search allocates %v times, want 0", got)
	}
}

// TestBestOfCandidatesIsInsertTopK holds the Morton plan's written-out
// selection to geom.InsertTopK over the same ranks, bit for bit, on
// candidates with ties, overflows to +Inf and NaNs, at k from 1 past the
// candidate count.
func TestBestOfCandidatesIsInsertTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	values := []float64{0, 1, 1, 2, 1e155, -1e155, math.NaN()}
	for trial := 0; trial < 2000; trial++ {
		n := 1 + rng.Intn(8)
		points := make([]geom.Point3, n)
		samplePos := make([]int, n)
		for i := range points {
			points[i] = geom.Point3{X: values[rng.Intn(len(values))], Y: values[rng.Intn(len(values)-1)]}
			samplePos[i] = i
		}
		p := geom.Point3{X: values[rng.Intn(len(values)-1)]}
		k := 1 + rng.Intn(n+1)
		got, gotD := make([]int, k), make([]float64, k)
		bestOfCandidates(p, points, samplePos, 0, n, got, gotD)
		want, wantD := make([]int, k), make([]float64, k)
		geom.ClearTopK(want, wantD)
		for r := 0; r < n; r++ {
			geom.InsertTopK(want, wantD, r, p.DistSq(points[r]))
		}
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gotD) != fmt.Sprint(wantD) {
			t.Fatalf("p %v, points %v, k=%d: %v %v, want %v %v", p, points, k, got, gotD, want, wantD)
		}
	}
}
