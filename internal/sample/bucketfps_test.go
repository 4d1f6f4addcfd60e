package sample

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func randomCloud(n int, seed int64) *geom.Cloud {
	rng := rand.New(rand.NewSource(seed))
	c := geom.NewCloud(0, 0)
	c.Points = make([]geom.Point3, n)
	for i := range c.Points {
		c.Points[i] = geom.Point3{X: rng.Float64(), Y: rng.Float64(), Z: rng.Float64()}
	}
	return c
}

// columns is pts as a fresh Coords.
func columns(pts []geom.Point3) Coords {
	var c Coords
	c.SetPoints(pts)
	return c
}

func TestBucketFPSWorkedExample(t *testing.T) {
	// At quality 1 the Fig. 8(a) worked example must come out exactly as
	// with exact FPS: {P0, P3, P4}.
	b := &BucketFPS{Frac: 1}
	got, err := b.Sample(fig8Cloud(), 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 3, 4}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("BucketFPS = %v, want %v", got, want)
		}
	}
}

func TestBucketFPSQualityOneMatchesExactFPS(t *testing.T) {
	// Pruning must be a pure speedup: same picks, same order, across bucket
	// layouts, start indexes and sample counts.
	for _, N := range []int{5, 37, 200, 1000} {
		c := randomCloud(N, int64(N))
		for _, n := range []int{1, 2, N / 3, N} {
			if n < 1 {
				continue
			}
			for _, bsize := range []int{0, 1, 7, 64, N} {
				exact, err := FPS{StartIndex: N / 2}.Sample(c, n)
				if err != nil {
					t.Fatal(err)
				}
				b := &BucketFPS{Frac: 1, StartIndex: N / 2, BucketSize: bsize}
				got, err := b.Sample(c, n)
				if err != nil {
					t.Fatal(err)
				}
				for i := range exact {
					if got[i] != exact[i] {
						t.Fatalf("N=%d n=%d bucket=%d: pick %d = %d, want %d (got %v want %v)",
							N, n, bsize, i, got[i], exact[i], got[:i+1], exact[:i+1])
					}
				}
			}
		}
	}
}

func TestBucketFPSScratchReuseStaysExact(t *testing.T) {
	// A single BucketFPS instance re-used across clouds of different sizes
	// must keep matching exact FPS (stale scratch must never leak through).
	b := &BucketFPS{Frac: 1}
	var sel []int
	for i, N := range []int{300, 50, 700, 50, 301} {
		c := randomCloud(N, int64(100+i))
		exact, err := FPS{}.Sample(c, N/4)
		if err != nil {
			t.Fatal(err)
		}
		sel, err = b.SampleInto(c.Points, N/4, sel)
		if err != nil {
			t.Fatal(err)
		}
		for j := range exact {
			if sel[j] != exact[j] {
				t.Fatalf("call %d (N=%d): pick %d = %d, want %d", i, N, j, sel[j], exact[j])
			}
		}
	}
}

func TestBucketFPSQualityZeroIsStride(t *testing.T) {
	c := randomCloud(256, 9)
	b := &BucketFPS{Frac: 0}
	got, err := b.Sample(c, 17)
	if err != nil {
		t.Fatal(err)
	}
	want := UniformIndexes(256, 17)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("quality 0 = %v, want stride %v", got, want)
		}
	}
}

func TestBucketFPSCoverageImprovesWithQuality(t *testing.T) {
	// The quality knob buys coverage: refinement picks target the worst
	// covered region, so radius at quality q=0.5 and q=1 should beat pure
	// stride on a randomly ordered (unstructurized, worst-case) cloud, and
	// exact quality should be at least as good as half quality up to noise.
	c := randomCloud(4000, 42)
	radius := func(frac float64) float64 {
		b := &BucketFPS{Frac: frac}
		sel, err := b.Sample(c, 64)
		if err != nil {
			t.Fatal(err)
		}
		return coverRadius(c.Points, sel)
	}
	r0, r5, r1 := radius(0), radius(0.5), radius(1)
	if r5 > r0 {
		t.Fatalf("coverage radius grew with quality: q0=%v q0.5=%v", r0, r5)
	}
	if r1 > r5*1.05 {
		t.Fatalf("coverage radius grew with quality: q0.5=%v q1=%v", r5, r1)
	}
}

func TestBucketFPSExplicitBuckets(t *testing.T) {
	c := randomCloud(120, 3)
	exact, err := FPS{}.Sample(c, 30)
	if err != nil {
		t.Fatal(err)
	}
	b := &BucketFPS{Frac: 1, Buckets: []int{0, 11, 12, 64, 120}}
	got, err := b.Sample(c, 30)
	if err != nil {
		t.Fatal(err)
	}
	for i := range exact {
		if got[i] != exact[i] {
			t.Fatalf("explicit buckets: pick %d = %d, want %d", i, got[i], exact[i])
		}
	}
	for _, bad := range [][]int{{}, {0}, {1, 120}, {0, 60}, {0, 60, 60, 120}, {0, 80, 60, 120}} {
		b := &BucketFPS{Frac: 1, Buckets: bad}
		if _, err := b.Sample(c, 5); err == nil {
			t.Fatalf("bucket offsets %v: want error", bad)
		}
	}
}

func TestBucketFPSErrors(t *testing.T) {
	c := fig8Cloud()
	b := &BucketFPS{Frac: 1}
	if _, err := b.Sample(c, 0); err == nil {
		t.Fatal("n=0: want error")
	}
	if _, err := b.Sample(c, 6); err == nil {
		t.Fatal("n>N: want error")
	}
	if _, err := b.Sample(geom.NewCloud(0, 0), 1); err == nil {
		t.Fatal("empty cloud: want error")
	}
	if _, err := b.SampleIndexes(nil, 1); err == nil {
		t.Fatal("empty points: want error")
	}
}

func TestBucketFPSDegenerateCloudStaysUnique(t *testing.T) {
	// All points coincide: exact FPS degrades to repeated index 0, but
	// BucketFPS's selected-point sentinel keeps the sample duplicate-free.
	c := geom.NewCloud(0, 0)
	c.Points = make([]geom.Point3, 40)
	b := &BucketFPS{Frac: 1}
	sel, err := b.Sample(c, 10)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= 40 || seen[i] {
			t.Fatalf("bad or duplicate index %d in %v", i, sel)
		}
		seen[i] = true
	}
}

func TestGridSampleTopUpHasNoDuplicates(t *testing.T) {
	// Regression: with fewer occupied voxels than n, the top-up loop used
	// to append indexes 0,1,2,… without checking membership, duplicating
	// the voxel representatives (which are themselves low indexes after
	// sorting). Two coincident clusters → 2 voxels; asking for more picks
	// than voxels must still return distinct indexes.
	c := geom.NewCloud(0, 0)
	for i := 0; i < 10; i++ {
		c.Points = append(c.Points, geom.Point3{X: 0, Y: 0, Z: 0})
	}
	for i := 0; i < 10; i++ {
		c.Points = append(c.Points, geom.Point3{X: 100, Y: 100, Z: 100})
	}
	sel, err := Grid{Size: 1}.Sample(c, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 8 {
		t.Fatalf("got %d picks, want 8", len(sel))
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= c.Len() || seen[i] {
			t.Fatalf("bad or duplicate index %d in %v", i, sel)
		}
		seen[i] = true
	}
}

func TestRandomSampleMatchesUniformityAtFullDraw(t *testing.T) {
	// Drawing all N points must return a permutation of 0..N−1 — the
	// partial Fisher–Yates overlay must not lose or duplicate indexes.
	c := randomCloud(64, 8)
	sel, err := Random{Seed: 21}.Sample(c, 64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if i < 0 || i >= 64 || seen[i] {
			t.Fatalf("bad or duplicate index %d", i)
		}
		seen[i] = true
	}
	if len(seen) != 64 {
		t.Fatalf("got %d distinct of 64", len(seen))
	}
}

func TestArchFactory(t *testing.T) {
	for _, tc := range []struct {
		a    Arch
		name string
	}{
		{ArchFPS, "fps"},
		{ArchBucketFPS, "bucketfps"},
		{ArchStride, "uniform"},
	} {
		s := tc.a.New(0.5)
		if s.Name() != tc.name {
			t.Fatalf("Arch %v → sampler %q, want %q", tc.a, s.Name(), tc.name)
		}
	}
	if ArchBucketFPS.String() != "bucketfps" || ArchStride.String() != "stride" || ArchFPS.String() != "fps" {
		t.Fatal("Arch.String mismatch")
	}
	b, ok := ArchBucketFPS.New(0.25).(*BucketFPS)
	if !ok || b.Frac != 0.25 {
		t.Fatalf("ArchBucketFPS.New did not thread frac: %#v", b)
	}
}

func TestBucketFPSExactIntoMatchesFPSIndexes(t *testing.T) {
	// ExactInto sees the level through a permutation and must still return
	// FPSIndexes' picks, index for index: ties (a lattice has masses of them)
	// go to the lowest level index, not the lowest position, and a level of
	// coincident points re-picks index 0 as fpsFrom does instead of staying
	// duplicate-free as SampleInto does.
	rng := rand.New(rand.NewSource(31))
	lattice := func(n int) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: float64(rng.Intn(4)), Y: float64(rng.Intn(4)), Z: float64(rng.Intn(3))}
		}
		return pts
	}
	b := &BucketFPS{Frac: 0.3, StartIndex: 5} // both ignored
	var out []int
	for _, level := range [][]geom.Point3{
		randomCloud(1, 1).Points, randomCloud(2, 2).Points, randomCloud(333, 3).Points,
		lattice(7), lattice(90), lattice(700), make([]geom.Point3, 40),
	} {
		N := len(level)
		perm := rng.Perm(N)
		pts, ids := make([]geom.Point3, N), make([]int32, N)
		for pos, i := range perm {
			pts[pos], ids[pos] = level[i], int32(i)
		}
		for _, n := range []int{1, (N + 1) / 2, N} {
			want, err := FPSIndexes(level, n, 0)
			if err != nil {
				t.Fatal(err)
			}
			for _, bsize := range []int{0, 1, 5, N} {
				b.BucketSize = bsize
				for _, permuted := range []bool{true, false} {
					if permuted {
						out, err = b.ExactInto(columns(pts), ids, n, out)
					} else {
						out, err = b.ExactInto(columns(level), nil, n, out)
					}
					if err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if out[i] != want[i] {
							t.Fatalf("N=%d n=%d bucket=%d permuted=%v: pick %d = %d, want %d", N, n, bsize, permuted, i, out[i], want[i])
						}
					}
				}
			}
		}
	}
	if _, err := b.ExactInto(Coords{}, nil, 1, nil); err == nil {
		t.Fatal("empty level: want error")
	}
	if _, err := b.ExactInto(columns(make([]geom.Point3, 3)), make([]int32, 2), 1, nil); err == nil {
		t.Fatal("ids of the wrong length: want error")
	}
	if _, err := b.ExactInto(Coords{X: make([]float64, 3), Y: make([]float64, 3), Z: make([]float64, 2)}, nil, 1, nil); err == nil {
		t.Fatal("columns of different lengths: want error")
	}
	// The legacy entry point is untouched by an ExactInto before it.
	sel, err := b.SampleInto(make([]geom.Point3, 40), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, i := range sel {
		if seen[i] {
			t.Fatalf("SampleInto after ExactInto duplicated %d in %v", i, sel)
		}
		seen[i] = true
	}
}

func TestBucketFPSOrderedIntoMatchesSampleInto(t *testing.T) {
	// OrderedInto sees the level through a permutation and must still return
	// SampleInto's picks over the level, index for index, at every quality:
	// stride seeds are positions of the level's own order, ties go to the
	// lowest level index, and selected points stay unique.
	rng := rand.New(rand.NewSource(37))
	lattice := func(n int) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: float64(rng.Intn(4)), Y: float64(rng.Intn(4)), Z: float64(rng.Intn(3))}
		}
		return pts
	}
	var ordered, plain BucketFPS
	var got []int
	for _, level := range [][]geom.Point3{
		randomCloud(1, 1).Points, randomCloud(3, 2).Points, randomCloud(333, 3).Points,
		lattice(9), lattice(500), make([]geom.Point3, 40),
	} {
		N := len(level)
		perm := rng.Perm(N)
		pts, ids := make([]geom.Point3, N), make([]int32, N)
		for pos, i := range perm {
			pts[pos], ids[pos] = level[i], int32(i)
		}
		for _, q := range []float64{0, 0.25, 0.5, 1} {
			for _, n := range []int{1, 2, (N + 2) / 3, N} {
				if n > N {
					continue
				}
				for _, bsize := range []int{0, 1, 7, N} {
					plain.Frac, plain.StartIndex = q, N/2
					ordered.Frac, ordered.StartIndex, ordered.BucketSize = q, N/2, bsize
					want, err := plain.SampleInto(level, n, nil)
					if err != nil {
						t.Fatal(err)
					}
					if got, err = ordered.OrderedInto(columns(pts), ids, n, got); err != nil {
						t.Fatal(err)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("N=%d q=%v n=%d bucket=%d: pick %d = %d, want %d", N, q, n, bsize, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
	bad := []int32{0, 1, 5}
	ordered.Frac = 0.5
	if _, err := ordered.OrderedInto(columns(make([]geom.Point3, 3)), bad, 2, nil); err == nil {
		t.Fatal("an id outside the level: want error")
	}
}
