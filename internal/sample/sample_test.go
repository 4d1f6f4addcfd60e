package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/geom"
)

// fig8Cloud is the 5-point cloud of the paper's Fig. 8 worked example.
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

func TestPaperWorkedExampleFig8aFPS(t *testing.T) {
	// Fig. 8(a): sampling 3 of 5 points starting at P0: after P0 the
	// distance array is {0,14,10,49,33} → P3 picked; then {0,11,10,0,26} →
	// P4 picked. Result: {P0, P3, P4}.
	got, err := FPS{StartIndex: 0}.Sample(fig8Cloud(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("FPS = %v, want %v", got, want)
		}
	}
}

func TestUniformIndexesPaperExample(t *testing.T) {
	// Fig. 8(b): sampling 3 of 5 points picks sorted positions {0, 2, 4}.
	got := UniformIndexes(5, 3)
	want := []int{0, 2, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("UniformIndexes(5,3) = %v, want %v", got, want)
		}
	}
}

func TestUniformIndexesProperties(t *testing.T) {
	f := func(total, n uint8) bool {
		tt := int(total%200) + 2
		nn := int(n)%tt + 1
		idx := UniformIndexes(tt, nn)
		if len(idx) != nn {
			return false
		}
		prev := -1
		for _, i := range idx {
			if i < 0 || i >= tt || i <= prev {
				return false
			}
			prev = i
		}
		if nn >= 2 && (idx[0] != 0 || idx[nn-1] != tt-1) {
			return false // both ends covered
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFPSErrors(t *testing.T) {
	c := fig8Cloud()
	if _, err := (FPS{}).Sample(c, 0); err == nil {
		t.Fatal("n=0: want error")
	}
	if _, err := (FPS{}).Sample(c, 6); err == nil {
		t.Fatal("n>N: want error")
	}
	if _, err := (FPS{}).Sample(geom.NewCloud(0, 0), 1); err == nil {
		t.Fatal("empty cloud: want error")
	}
}

func TestFPSAllPoints(t *testing.T) {
	c := fig8Cloud()
	got, err := FPS{}.Sample(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range got {
		if seen[i] {
			t.Fatalf("duplicate sample %d in %v", i, got)
		}
		seen[i] = true
	}
	if len(seen) != 5 {
		t.Fatalf("sampled %d distinct of 5", len(seen))
	}
}

func TestFPSStartIndexOutOfRangeFallsBack(t *testing.T) {
	got, err := FPS{StartIndex: 99}.Sample(fig8Cloud(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("fallback start = %d, want 0", got[0])
	}
}

// coverRadius computes max distance of any point to the sampled set.
func coverRadius(pts []geom.Point3, sel []int) float64 {
	worst := 0.0
	for _, p := range pts {
		best := math.Inf(1)
		for _, s := range sel {
			if d := p.DistSq(pts[s]); d < best {
				best = d
			}
		}
		if best > worst {
			worst = best
		}
	}
	return math.Sqrt(worst)
}

func TestFPSGreedyKCenterBound(t *testing.T) {
	// FPS is the greedy k-center heuristic: its covering radius is within
	// 2× of the optimal. We verify the weaker, directly checkable
	// invariant: the covering radius never exceeds the distance of the last
	// (farthest) pick at selection time, and shrinks monotonically as n
	// grows.
	c := geom.GenerateShape(geom.ShapeTorus, geom.ShapeOptions{N: 300, Seed: 11})
	prev := math.Inf(1)
	for _, n := range []int{5, 10, 20, 40} {
		sel, err := FPS{}.Sample(c, n)
		if err != nil {
			t.Fatal(err)
		}
		r := coverRadius(c.Points, sel)
		if r > prev+1e-12 {
			t.Fatalf("covering radius grew from %v to %v at n=%d", prev, r, n)
		}
		prev = r
	}
}

func TestFPSBeatsRandomCoverage(t *testing.T) {
	c := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 400, DensitySkew: 0.8, Seed: 3})
	fps, err := FPS{}.Sample(c, 24)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Random{Seed: 7}.Sample(c, 24)
	if err != nil {
		t.Fatal(err)
	}
	if coverRadius(c.Points, fps) > coverRadius(c.Points, rnd) {
		t.Fatalf("FPS coverage (%v) worse than random (%v)",
			coverRadius(c.Points, fps), coverRadius(c.Points, rnd))
	}
}

func TestRandomSampleDistinct(t *testing.T) {
	c := geom.GenerateShape(geom.ShapeSphere, geom.ShapeOptions{N: 100, Seed: 1})
	sel, err := Random{Seed: 5}.Sample(c, 50)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= 100 || seen[i] {
			t.Fatalf("bad or duplicate index %d", i)
		}
		seen[i] = true
	}
}

func TestUniformSamplerName(t *testing.T) {
	names := map[string]Sampler{
		"fps": FPS{}, "random": Random{}, "uniform": Uniform{}, "grid": Grid{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Fatalf("Name = %q, want %q", s.Name(), want)
		}
	}
}

func TestGridSamplerReturnsNIndexes(t *testing.T) {
	c := geom.GenerateShape(geom.ShapeBox, geom.ShapeOptions{N: 500, Seed: 2})
	for _, n := range []int{10, 100, 499} {
		sel, err := Grid{}.Sample(c, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(sel) != n {
			t.Fatalf("grid returned %d of %d", len(sel), n)
		}
		for _, i := range sel {
			if i < 0 || i >= c.Len() {
				t.Fatalf("index %d out of range", i)
			}
		}
	}
}

func TestThreeNNPlanWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var targets, sources []geom.Point3
	for i := 0; i < 50; i++ {
		targets = append(targets, geom.Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	for i := 0; i < 20; i++ {
		sources = append(sources, geom.Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()})
	}
	plan, err := ThreeNN{}.Plan(targets, sources)
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 3 || plan.Targets() != 50 {
		t.Fatalf("plan shape K=%d targets=%d", plan.K, plan.Targets())
	}
	for ti := 0; ti < plan.Targets(); ti++ {
		w := make([]float64, plan.K)
		total := 0.0
		for j := range w {
			s := int(plan.Indexes[ti*plan.K+j])
			if s < 0 || s >= len(sources) {
				t.Fatalf("bad source index %d", s)
			}
			w[j] = 1 / (targets[ti].DistSq(sources[s]) + 1e-10)
			total += w[j]
		}
		// Each weight is, bit for bit, the float32 of its normalized inverse
		// squared distance computed here in float64: stronger than a check
		// that the weights sum to 1, which float32 rounding would blur.
		for j, wj := range w {
			if got := plan.Weights[ti*plan.K+j]; got != float32(wj/total) {
				t.Fatalf("target %d weight %d = %v, want %v", ti, j, got, float32(wj/total))
			}
		}
	}
}

func TestThreeNNPicksNearestSources(t *testing.T) {
	sources := []geom.Point3{{X: 0}, {X: 10}, {X: 20}, {X: 30}}
	targets := []geom.Point3{{X: 1}}
	plan, err := ThreeNN{}.Plan(targets, sources)
	if err != nil {
		t.Fatal(err)
	}
	// Nearest three to x=1 are sources 0, 1, 2 in that order.
	want := []int32{0, 1, 2}
	for j, s := range want {
		if plan.Indexes[j] != s {
			t.Fatalf("indexes = %v, want %v", plan.Indexes[:3], want)
		}
	}
	// Coincident source dominates the weight.
	plan2, err := ThreeNN{}.Plan([]geom.Point3{{X: 10}}, sources)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.Weights[0] < 0.999 {
		t.Fatalf("coincident weight = %v, want ≈1", plan2.Weights[0])
	}
}

func TestThreeNNFewSources(t *testing.T) {
	plan, err := ThreeNN{}.Plan([]geom.Point3{{}, {X: 1}}, []geom.Point3{{X: 5}})
	if err != nil {
		t.Fatal(err)
	}
	if plan.K != 1 {
		t.Fatalf("K = %d with one source", plan.K)
	}
	if _, err := (ThreeNN{}).Plan([]geom.Point3{{}}, nil); err == nil {
		t.Fatal("no sources: want error")
	}
}

func TestApplyPlan(t *testing.T) {
	// Two targets, two sources, K=1: pure gather.
	plan := &InterpPlan{K: 1, Indexes: []int32{1, 0}, Weights: []float32{1, 1}}
	src := []float32{1, 2, 3, 4} // 2×2
	dst, err := ApplyPlan(plan, src, 2, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	want := []float32{3, 4, 1, 2}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("dst = %v, want %v", dst, want)
		}
	}
	// With a row stride of 3 the rows land in the left two columns and the
	// third is left as it was.
	wide := []float32{9, 9, 7, 9, 9, 8}
	if _, err := ApplyPlan(plan, src, 2, wide, 3); err != nil {
		t.Fatal(err)
	}
	for i, w := range []float32{3, 4, 7, 1, 2, 8} {
		if wide[i] != w {
			t.Fatalf("strided dst = %v", wide)
		}
	}
}

func TestApplyPlanBlends(t *testing.T) {
	plan := &InterpPlan{K: 2, Indexes: []int32{0, 1}, Weights: []float32{0.25, 0.75}}
	src := []float32{0, 4} // 2×1
	dst, err := ApplyPlan(plan, src, 1, nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(float64(dst[0]-3)) > 1e-6 {
		t.Fatalf("blend = %v, want 3", dst[0])
	}
}

func TestApplyPlanBadShape(t *testing.T) {
	plan := &InterpPlan{K: 1, Indexes: []int32{0}, Weights: []float32{1}}
	if _, err := ApplyPlan(plan, []float32{1, 2, 3}, 2, nil, 2); err == nil {
		t.Fatal("odd src length: want error")
	}
	if _, err := ApplyPlan(plan, []float32{1, 2}, 2, nil, 1); err == nil {
		t.Fatal("stride below the feature width: want error")
	}
}

func TestFPSIndexesDirect(t *testing.T) {
	pts := fig8Cloud().Points
	idx, err := FPSIndexes(pts, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	if idx[0] != 0 || idx[1] != 3 || idx[2] != 4 {
		t.Fatalf("FPSIndexes = %v", idx)
	}
	if _, err := FPSIndexes(nil, 1, 0); err == nil {
		t.Fatal("empty points: want error")
	}
}
