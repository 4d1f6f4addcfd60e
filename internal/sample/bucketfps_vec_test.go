package sample

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The vector refresh is checked against the Go loops it replaces, bit for
// bit: whole samplings through ExactInto and SampleInto, and each kernel on
// its own over inputs the samplings never produce (NaN, −0).

// vecLevels are the levels the samplings run over, each for what it does to
// the kernels: ties on the argmax, a level whose remaining distances are all
// 0, overflow to +Inf, and one non-finite coordinate (which must keep the
// Go loops).
func vecLevels(rng *rand.Rand) []struct {
	name string
	pts  []geom.Point3
} {
	noise := func(n int, scale float64) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: scale * rng.NormFloat64(), Y: scale * rng.Float64(), Z: scale * rng.NormFloat64()}
		}
		return pts
	}
	lattice := func(n int) []geom.Point3 {
		pts := make([]geom.Point3, n)
		for i := range pts {
			pts[i] = geom.Point3{X: float64(rng.Intn(5)), Y: float64(rng.Intn(3)), Z: float64(rng.Intn(4))}
		}
		return pts
	}
	coincident := make([]geom.Point3, 37)
	for i := range coincident {
		coincident[i] = geom.Point3{X: -2.5, Y: 1, Z: 0.125}
	}
	nonFinite := noise(203, 1)
	nonFinite[101].Y = math.Inf(1)
	return []struct {
		name string
		pts  []geom.Point3
	}{
		{"noise-5", noise(5, 1)},
		{"noise-203", noise(203, 1)},
		{"noise-1030", noise(1030, 3)},
		{"scene-2051", geom.GenerateScene(geom.SceneOptions{N: 2051, Seed: rng.Int63()}).Points},
		{"lattice-150", lattice(150)},
		{"lattice-777", lattice(777)},
		{"coincident-37", coincident},
		{"huge-301", noise(301, 1e154)},
		{"non-finite-203", nonFinite},
	}
}

// bothPaths runs sample with the Go loops and then with the vector refresh,
// and fails unless they return the same picks. vector reports whether the
// second run took the vector path.
func bothPaths(t *testing.T, what string, b *BucketFPS, sample func() ([]int, error)) (vector bool) {
	t.Helper()
	old := fpsAVX2
	defer func() { fpsAVX2 = old }()
	fpsAVX2 = false
	want, err := sample()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want = append([]int(nil), want...)
	fpsAVX2 = old
	got, err := sample()
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: pick %d is %d with the vector refresh, %d with the Go loops", what, i, got[i], want[i])
		}
	}
	return b.s.vec
}

// TestVectorRefreshMatchesGoLoops runs ExactInto (in level order and through
// a permutation), SampleInto and OrderedInto (permuted) at quality 1 and 0.5
// over every level, with
// automatic, tiny and explicit buckets, one sampler for everything so that
// scratch from one call meets the next. The vector path must have run on
// every finite level and on no other.
func TestVectorRefreshMatchesGoLoops(t *testing.T) {
	if !fpsAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(29))
	b := &BucketFPS{}
	var out []int
	for _, lv := range vecLevels(rng) {
		N := len(lv.pts)
		finite := lv.name != "non-finite-203"
		perm := rng.Perm(N)
		permuted, ids := make([]geom.Point3, N), make([]int32, N)
		for pos, i := range perm {
			permuted[pos], ids[pos] = lv.pts[i], int32(i)
		}
		level, shuffled := columns(lv.pts), columns(permuted)
		// Explicit buckets of every size from 1 to 9, then the rest in one.
		var explicit []int
		for o, w := 0, 1; o < N; o, w = o+w, w%9+1 {
			explicit = append(explicit, o)
		}
		explicit = append(explicit, N)
		type layout struct {
			size    int
			buckets []int
		}
		layouts := []layout{{size: 0}, {size: 1}, {size: 3}, {size: 6}, {size: 9}, {size: 13}, {size: N}, {buckets: explicit}}
		for _, l := range layouts {
			b.BucketSize, b.Buckets = l.size, l.buckets
			for _, n := range []int{1, 2, (N + 2) / 3, N} {
				what := fmt.Sprintf("%s n=%d bucket=%d explicit=%v", lv.name, n, l.size, l.buckets != nil)
				exact := func(c Coords, ids []int32) func() ([]int, error) {
					return func() ([]int, error) {
						var err error
						out, err = b.ExactInto(c, ids, n, out)
						return out, err
					}
				}
				vec := bothPaths(t, what+" ExactInto", b, exact(level, nil))
				vec = bothPaths(t, what+" ExactInto permuted", b, exact(shuffled, ids)) && vec
				for _, q := range []float64{1, 0.5} {
					b.Frac, b.StartIndex = q, n%N
					vec = bothPaths(t, fmt.Sprintf("%s SampleInto@%v", what, q), b, func() ([]int, error) {
						var err error
						out, err = b.SampleInto(lv.pts, n, out)
						return out, err
					}) && vec
					vec = bothPaths(t, fmt.Sprintf("%s OrderedInto@%v permuted", what, q), b, func() ([]int, error) {
						var err error
						out, err = b.OrderedInto(shuffled, ids, n, out)
						return out, err
					}) && vec
				}
				// One pick, or every seed but one, never refreshes a bucket.
				if vec != finite && n > 2 {
					t.Fatalf("%s: vector path %v on a level that is finite=%v", what, vec, finite)
				}
			}
		}
	}
}

// kernelCase is one bucket's worth of kernel inputs: points, distances
// (with the specials a finite level never produces) and picks, which are
// positions of the points.
type kernelCase struct {
	lvl   Coords
	dist  []float64
	picks []int
	box   geom.AABB
}

func newKernelCase(rng *rand.Rand, n, picks int) kernelCase {
	var c kernelCase
	c.lvl.Resize(n)
	c.dist = make([]float64, n)
	c.picks = make([]int, picks)
	fill(rng, c.lvl, c.picks, c.dist)
	// The box of a bucket of a finite level is finite, which is all the
	// replay test's NaN handling rests on.
	c.box = geom.AABB{Min: geom.Point3{X: -0.5, Y: 0, Z: -1}, Max: geom.Point3{X: 1, Y: 0, Z: 0.5}}
	for i := 0; i < n; i++ {
		if p := c.lvl.At(i); p.IsFinite() {
			c.box.Extend(p)
		}
	}
	return c
}

// fill writes coordinates (mostly on a coarse lattice, so distances tie, and
// now and then NaN or ±Inf), picks, and distances (the values a sampling
// leaves, plus NaN, −0 and copies of a real distance).
func fill(rng *rand.Rand, lvl Coords, picks []int, dist []float64) {
	coord := func() float64 {
		switch r := rng.Intn(40); {
		case r == 0:
			return math.NaN()
		case r == 1:
			return math.Inf(1 - 2*rng.Intn(2))
		case r < 20:
			return float64(rng.Intn(6)) / 2
		default:
			return rng.NormFloat64()
		}
	}
	for i := range lvl.X {
		lvl.X[i], lvl.Y[i], lvl.Z[i] = coord(), coord(), coord()
	}
	for k := range picks {
		picks[k] = rng.Intn(len(lvl.X))
	}
	for i := range dist {
		switch r := rng.Intn(12); r {
		case 0:
			dist[i] = math.NaN()
		case 1:
			dist[i] = math.Copysign(0, -1)
		case 2:
			dist[i] = 0
		case 3:
			dist[i] = -1
		case 4:
			dist[i] = math.Inf(1)
		case 5:
			// Exactly the distance to pick 0: the update's d == dist case.
			dist[i] = lvl.At(i).DistSq(lvl.At(picks[0]))
		default:
			dist[i] = rng.Float64() * 8
		}
	}
}

// goUpdate is refresh's Go loop for one pick.
func goUpdate(lvl *Coords, dist []float64, p geom.Point3) {
	for i := range dist {
		if d := lvl.At(i).DistSq(p); d < dist[i] {
			dist[i] = d
		}
	}
}

func sameBits(a, b []float64) int {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i
		}
	}
	return -1
}

// checkKernels runs the three vector kernels, through their Go glue, on one
// case and compares each with the Go form refresh uses.
func checkKernels(t *testing.T, what string, c kernelCase) {
	t.Helper()
	n, picks := len(c.dist), len(c.picks)
	s := &bucketScratch{lvl: c.lvl, picks: c.picks, dist: c.dist}
	orig := append([]float64(nil), c.dist...)
	want := make([]float64, n)

	// The replay test, against thresholds that are some pick's own
	// distance to the box (the == case that decides replay) and NaN.
	for _, cm := range []float64{boxDistSq(&c.box, c.lvl.At(c.picks[picks/2])), boxDistSq(&c.box, c.lvl.At(c.picks[0])), 0, math.Inf(1), math.NaN(), 0.75} {
		var wantMask uint64
		for k := 0; k < picks; k++ {
			if !(boxDistSq(&c.box, c.lvl.At(c.picks[k])) >= cm) {
				wantMask |= 1 << k
			}
		}
		if got := s.replayMask(0, picks, &c.box, cm); got != wantMask {
			t.Fatalf("%s: replay mask against %v is %064b, want %064b", what, cm, got, wantMask)
		}
	}

	// The update, from every pick in turn, each time from the same start.
	for k := 0; k < picks; k++ {
		copy(c.dist, orig)
		copy(want, orig)
		goUpdate(&c.lvl, want, c.lvl.At(c.picks[k]))
		m := s.update(0, n, k)
		if i := sameBits(c.dist, want); i >= 0 {
			t.Fatalf("%s: update from pick %d leaves dist[%d] = %v (%#x), the Go loop %v (%#x)",
				what, k, i, c.dist[i], math.Float64bits(c.dist[i]), want[i], math.Float64bits(want[i]))
		}
		wantMax, nan := math.Inf(-1), false
		for _, d := range want {
			wantMax, nan = max(wantMax, d), nan || math.IsNaN(d)
		}
		if !nan && m != wantMax {
			t.Fatalf("%s: update from pick %d returns max %v, want %v", what, k, m, wantMax)
		}
	}

	// The search, for every value present (the first position holding it)
	// and for one that is not.
	for _, m := range append(append([]float64(nil), orig...), 12345) {
		copy(c.dist, orig)
		wantAt := n
		for i, d := range c.dist {
			if d == m {
				wantAt = i
				break
			}
		}
		if got := s.find(0, n, m); got != wantAt {
			t.Fatalf("%s: first position of %v is %d, want %d", what, m, got, wantAt)
		}
	}
}

// TestVectorKernelsMatchGoForms compares each kernel with the Go form refresh
// uses — the replay mask bit by bit, every updated distance bit for bit (NaN
// payloads and signed zeros included), the running max, the first equal
// position — at every length from 1 to 70 and at a span boundary.
func TestVectorKernelsMatchGoForms(t *testing.T) {
	if !fpsAVX2 {
		t.Skip("no AVX2 on this host")
	}
	rng := rand.New(rand.NewSource(4))
	for n := 1; n <= 70; n++ {
		for rep := 0; rep < 3; rep++ {
			picks := []int{n, 1 + rng.Intn(replayBlock), replayBlock}[rep]
			checkKernels(t, fmt.Sprintf("n=%d rep %d", n, rep), newKernelCase(rng, n, min(picks, replayBlock)))
		}
	}
	for _, n := range []int{laneSpan + 1, laneSpan + 3, 2*laneSpan + 6} {
		checkKernels(t, fmt.Sprintf("n=%d", n), newKernelCase(rng, n, 9))
	}
}
