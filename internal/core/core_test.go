package core

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/sample"
)

// fig8Cloud is the paper's 5-point worked example (Fig. 8 / Fig. 10).
func fig8Cloud() *geom.Cloud {
	c := geom.NewCloud(0, 0)
	c.Points = []geom.Point3{
		{X: 3, Y: 6, Z: 2}, // P0
		{X: 1, Y: 3, Z: 1}, // P1
		{X: 4, Y: 3, Z: 2}, // P2
		{X: 0, Y: 0, Z: 0}, // P3
		{X: 5, Y: 1, Z: 0}, // P4
	}
	return c
}

func TestPaperWorkedExampleFig8bMortonSampler(t *testing.T) {
	// Fig. 8(b): Morton codes {185,23,114,0,67} (r=1), sorted index array
	// {3,1,4,2,0}, uniform sampling picks P3, P4, P0 — "exactly the same
	// points" as FPS.
	sel, err := MortonSampler{Options: StructurizeOptions{GridSize: 1, TotalBits: 30}}.Sample(fig8Cloud(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{3, 4, 0}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("Morton sample = %v, want %v", sel, want)
		}
	}
}

func TestPaperWorkedExampleGridSize4(t *testing.T) {
	// With r=4 the sorted indexes become {1,3,2,4,0} and the sampled points
	// are {1, 2, 0} — the sub-optimal case the paper warns about.
	sel, err := MortonSampler{Options: StructurizeOptions{GridSize: 4, TotalBits: 30}}.Sample(fig8Cloud(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 0}
	for i := range want {
		if sel[i] != want[i] {
			t.Fatalf("Morton sample (r=4) = %v, want %v", sel, want)
		}
	}
}

func TestPaperWorkedExampleFig10bWindow(t *testing.T) {
	// Fig. 10(b): on the structurized order {P3,P1,P4,P2,P0}, the W=k+1=4
	// window around P2 (position 3) selects P1, P4 and P0 as its 3
	// neighbors.
	s, err := Structurize(fig8Cloud(), StructurizeOptions{GridSize: 1, TotalBits: 30})
	if err != nil {
		t.Fatal(err)
	}
	// P2's structurized position.
	pos := -1
	for j, orig := range s.Perm {
		if orig == 2 {
			pos = j
		}
	}
	if pos != 3 {
		t.Fatalf("P2 at position %d, want 3", pos)
	}
	ws := WindowSearcher{W: 4}
	nbr, err := ws.SearchPositions(s.Cloud.Points, []int{pos}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Map back to original indexes.
	got := make([]int, 3)
	for i, p := range nbr {
		got[i] = s.Perm[p]
	}
	sort.Ints(got)
	want := []int{0, 1, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("window neighbors = %v, want %v", got, want)
		}
	}
}

func TestStructurizeInvariants(t *testing.T) {
	cloud := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 500, DensitySkew: 0.7, Seed: 9})
	cloud.Labels = make([]int32, cloud.Len())
	for i := range cloud.Labels {
		cloud.Labels[i] = int32(i % 7)
	}
	s, err := Structurize(cloud, StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != cloud.Len() {
		t.Fatalf("length changed: %d → %d", cloud.Len(), s.Len())
	}
	// Codes must be sorted.
	for j := 1; j < len(s.Codes); j++ {
		if s.Codes[j-1] > s.Codes[j] {
			t.Fatal("codes not sorted")
		}
	}
	// Perm must be a permutation, and carry points + labels consistently.
	seen := make([]bool, cloud.Len())
	for j, orig := range s.Perm {
		if seen[orig] {
			t.Fatal("perm not a permutation")
		}
		seen[orig] = true
		if s.Cloud.Points[j] != cloud.Points[orig] {
			t.Fatal("points not permuted consistently")
		}
		if s.Cloud.Labels[j] != cloud.Labels[orig] {
			t.Fatal("labels not permuted consistently")
		}
	}
	// Input untouched.
	if &cloud.Points[0] == &s.Cloud.Points[0] {
		t.Fatal("structurize aliased the input")
	}
	// Default 32-bit codes → 4 bytes per point overhead.
	if got := s.MemoryOverheadBytes(); got != cloud.Len()*4 {
		t.Fatalf("memory overhead = %d, want %d", got, cloud.Len()*4)
	}
}

func TestStructurizeStdSortMatchesRadix(t *testing.T) {
	cloud := geom.GenerateShape(geom.ShapeTorus, geom.ShapeOptions{N: 300, Seed: 2})
	a, err := Structurize(cloud, StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Structurize(cloud, StructurizeOptions{UseStdSort: true})
	if err != nil {
		t.Fatal(err)
	}
	for j := range a.Perm {
		if a.Perm[j] != b.Perm[j] {
			t.Fatal("radix and std sorts disagree")
		}
	}
}

func TestStructurizeEmptyAndInvalid(t *testing.T) {
	if _, err := Structurize(geom.NewCloud(0, 0), StructurizeOptions{}); err == nil {
		t.Fatal("empty cloud: want error")
	}
	bad := geom.NewCloud(2, 1)
	bad.Feat = bad.Feat[:1]
	if _, err := Structurize(bad, StructurizeOptions{}); err == nil {
		t.Fatal("invalid cloud: want error")
	}
}

func TestSampleStructurizedMatchesSampler(t *testing.T) {
	cloud := geom.GenerateShape(geom.ShapeHelix, geom.ShapeOptions{N: 200, Seed: 5})
	s, err := Structurize(cloud, StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := SampleStructurized(s, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MortonSampler{}.Sample(cloud, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("paths disagree: %v vs %v", a, b)
		}
	}
}

func TestMortonSamplerErrors(t *testing.T) {
	cloud := fig8Cloud()
	if _, err := (MortonSampler{}).Sample(cloud, 0); err == nil {
		t.Fatal("n=0: want error")
	}
	if _, err := (MortonSampler{}).Sample(cloud, 9); err == nil {
		t.Fatal("n>N: want error")
	}
}

func TestWindowSearcherPureIndexPick(t *testing.T) {
	pts := make([]geom.Point3, 10)
	for i := range pts {
		pts[i] = geom.Point3{X: float64(i)}
	}
	ws := WindowSearcher{} // W = k
	nbr, err := ws.SearchPositions(pts, []int{5}, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Centered window: positions {4,5,6}.
	want := []int{4, 5, 6}
	for i := range want {
		if nbr[i] != want[i] {
			t.Fatalf("index pick = %v, want %v", nbr, want)
		}
	}
	// Boundary clamping.
	nbr, err = ws.SearchPositions(pts, []int{0, 9}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if nbr[0] != 0 || nbr[1] != 1 || nbr[2] != 2 {
		t.Fatalf("left clamp = %v", nbr[:3])
	}
	if nbr[3] != 7 || nbr[4] != 8 || nbr[5] != 9 {
		t.Fatalf("right clamp = %v", nbr[3:])
	}
}

func TestWindowSearcherExactWithinWindow(t *testing.T) {
	// W > k ranks by true distance inside the window.
	pts := []geom.Point3{{X: 0}, {X: 10}, {X: 1}, {X: 11}, {X: 2}}
	ws := WindowSearcher{W: 5}
	nbr, err := ws.SearchPositions(pts, []int{0}, 3)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(nbr)
	// Self (position 0) is excluded; the three closest others are x=1, 2, 10.
	want := []int{1, 2, 4}
	for i := range want {
		if nbr[i] != want[i] {
			t.Fatalf("windowed = %v, want %v", nbr, want)
		}
	}
}

func TestWindowFullWidthMatchesExactKNN(t *testing.T) {
	// Property: with W = N the window searcher is exact k-NN → FNR = 0.
	cloud := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 150, Seed: 6})
	s, err := Structurize(cloud, StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	approx, err := WindowSearcher{W: s.Len()}.SearchPositions(s.Cloud.Points, pos, k)
	if err != nil {
		t.Fatal(err)
	}
	exact := exactKNNNoSelf(t, s.Cloud.Points, k)
	// Compare by distance multiset (ties may resolve differently).
	for q := 0; q < s.Len(); q++ {
		ga := sortedDists(s.Cloud.Points, q, approx[q*k:(q+1)*k])
		ge := sortedDists(s.Cloud.Points, q, exact[q*k:(q+1)*k])
		for j := range ga {
			if math.Abs(ga[j]-ge[j]) > 1e-9 {
				t.Fatalf("query %d: %v vs %v", q, ga, ge)
			}
		}
	}
}

// exactKNNNoSelf returns each point's k nearest *other* points (the windowed
// searcher excludes the query itself, so its reference must too).
func exactKNNNoSelf(t *testing.T, pts []geom.Point3, k int) []int {
	t.Helper()
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	out, err := neighbor.KNNExcludingSelf(pts, idx, k)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedDists(pts []geom.Point3, q int, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, n := range idx {
		out[i] = pts[q].DistSq(pts[n])
	}
	sort.Float64s(out)
	return out
}

func TestWindowSearcherErrors(t *testing.T) {
	pts := fig8Cloud().Points
	ws := WindowSearcher{}
	if _, err := ws.SearchPositions(nil, []int{0}, 1); err == nil {
		t.Fatal("empty points: want error")
	}
	if _, err := ws.SearchPositions(pts, []int{0}, 0); err == nil {
		t.Fatal("k=0: want error")
	}
	if _, err := ws.SearchPositions(pts, []int{0}, 9); err == nil {
		t.Fatal("k>N: want error")
	}
}

func TestWindowFNRDecreasesWithW(t *testing.T) {
	// The Fig. 15a trend: FNR is non-increasing as the window grows.
	cloud := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 400, DensitySkew: 0.6, Seed: 8})
	s, err := Structurize(cloud, StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	k := 6
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	exact := exactKNNNoSelf(t, s.Cloud.Points, k)
	prev := 1.1
	for _, w := range []int{2 * k, 4 * k, 16 * k, s.Len()} {
		approx, err := WindowSearcher{W: w}.SearchPositions(s.Cloud.Points, pos, k)
		if err != nil {
			t.Fatal(err)
		}
		fnr, err := neighbor.FalseNeighborRatio(approx, exact, k)
		if err != nil {
			t.Fatal(err)
		}
		if fnr > prev+0.02 { // small tolerance: ties can flip
			t.Fatalf("FNR rose from %v to %v at W=%d", prev, fnr, w)
		}
		prev = fnr
	}
	if prev > 1e-9 {
		t.Fatalf("FNR at W=N is %v, want 0", prev)
	}
}

func TestStructurizedSearcherMatchesWindow(t *testing.T) {
	cloud := geom.GenerateShape(geom.ShapeTorus, geom.ShapeOptions{N: 100, Seed: 12})
	s, err := Structurize(cloud, StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	queries := s.Cloud.Points[10:20]
	ss := StructurizedSearcher{Window: WindowSearcher{W: 8}}
	got, err := ss.Search(s.Cloud.Points, queries, 4)
	if err != nil {
		t.Fatal(err)
	}
	pos := []int{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	want, err := WindowSearcher{W: 8}.SearchPositions(s.Cloud.Points, pos, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("adapter disagrees at %d", i)
		}
	}
	// Unknown query point errors.
	if _, err := ss.Search(s.Cloud.Points, []geom.Point3{{X: 1e9}}, 2); err == nil {
		t.Fatal("foreign query: want error")
	}
}

func TestMortonInterpPlan(t *testing.T) {
	cloud := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 256, Seed: 3})
	s, err := Structurize(cloud, StructurizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	samplePos := SamplePositions(s.Len(), 32)
	plan := &sample.InterpPlan{}
	if err := (MortonInterp{}).PlanStructurizedInto(plan, s.Cloud.Points, samplePos); err != nil {
		t.Fatal(err)
	}
	if plan.K != 3 || plan.Targets() != s.Len() {
		t.Fatalf("plan shape K=%d targets=%d", plan.K, plan.Targets())
	}
	source := func(r int) geom.Point3 { return s.Cloud.Points[samplePos[r]] }
	for ti := 0; ti < plan.Targets(); ti++ {
		for j := 0; j < plan.K; j++ {
			if r := int(plan.Indexes[ti*plan.K+j]); r < 0 || r >= len(samplePos) {
				t.Fatalf("sample rank %d out of range", r)
			}
		}
		if !weightsExact(plan, ti, s.Cloud.Points[ti], source) {
			t.Fatalf("target %d: weights %v are not their normalized inverse squared distances", ti, plan.Weights[ti*plan.K:(ti+1)*plan.K])
		}
	}
	// A sampled point interpolates (almost) purely from itself.
	ti := samplePos[5]
	found := false
	for j := 0; j < plan.K; j++ {
		if plan.Indexes[ti*plan.K+j] == 5 && plan.Weights[ti*plan.K+j] > 0.99 {
			found = true
		}
	}
	if !found {
		t.Fatal("sampled point does not dominate its own interpolation")
	}
}

func TestMortonInterpErrors(t *testing.T) {
	pts := fig8Cloud().Points
	var plan sample.InterpPlan
	if err := (MortonInterp{}).PlanStructurizedInto(&plan, pts, nil); err == nil {
		t.Fatal("no samples: want error")
	}
	if err := (MortonInterp{}).PlanStructurizedInto(&plan, pts, []int{3, 1}); err == nil {
		t.Fatal("unsorted positions: want error")
	}
}

// weightsExact reports whether target t's row of plan holds, bit for bit,
// the float32 of each source's normalized inverse squared distance,
// computed here in float64 from the row's own sources in the row's order
// (with FillWeights' 1e-10 guard against a coincident source). It is
// stronger than a check that the weights sum to 1: a normalization off by
// less than float32's rounding fails it too.
func weightsExact(plan *sample.InterpPlan, t int, target geom.Point3, source func(i int) geom.Point3) bool {
	k := plan.K
	w := make([]float64, k)
	total := 0.0
	for i := range w {
		w[i] = 1 / (target.DistSq(source(int(plan.Indexes[t*k+i]))) + 1e-10)
		total += w[i]
	}
	for i, wi := range w {
		if plan.Weights[t*k+i] != float32(wi/total) {
			return false
		}
	}
	return true
}

func TestReusePolicy(t *testing.T) {
	cases := []struct {
		dist  int
		wants []bool // computes for layers 0..5
	}{
		{0, []bool{true, true, true, true, true, true}},
		{1, []bool{true, false, true, false, true, false}},
		{2, []bool{true, false, false, true, false, false}},
	}
	for _, c := range cases {
		p := ReusePolicy{Distance: c.dist}
		for l, want := range c.wants {
			if got := p.Computes(l); got != want {
				t.Fatalf("dist=%d layer=%d: Computes=%v, want %v", c.dist, l, got, want)
			}
		}
	}
}

func TestSamplePositionsSubsetStaysSorted(t *testing.T) {
	// Sampling a Morton-sorted level yields ascending positions — the
	// property that lets deeper modules keep using index-based operations.
	f := func(total uint16, n uint8) bool {
		tt := int(total%500) + 2
		nn := int(n)%tt + 1
		pos := SamplePositions(tt, nn)
		return sort.IntsAreSorted(pos)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
