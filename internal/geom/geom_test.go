package geom

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestPoint3Arithmetic(t *testing.T) {
	p := Point3{1, 2, 3}
	q := Point3{4, 5, 6}
	if got := p.Add(q); got != (Point3{5, 7, 9}) {
		t.Fatalf("Add = %v", got)
	}
	if got := q.Sub(p); got != (Point3{3, 3, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point3{2, 4, 6}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
}

func TestDistSqMatchesDist(t *testing.T) {
	f := func(ax, ay, az, bx, by, bz float64) bool {
		// Keep values in a sane range to avoid overflow-to-Inf noise.
		clamp := func(v float64) float64 { return math.Mod(v, 1e6) }
		p := Point3{clamp(ax), clamp(ay), clamp(az)}
		q := Point3{clamp(bx), clamp(by), clamp(bz)}
		d := p.Dist(q)
		return math.Abs(d*d-p.DistSq(q)) <= 1e-6*(1+p.DistSq(q))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestIsFinite(t *testing.T) {
	if !(Point3{1, 2, 3}).IsFinite() {
		t.Fatal("finite point reported non-finite")
	}
	bad := []Point3{
		{math.NaN(), 0, 0},
		{0, math.Inf(1), 0},
		{0, 0, math.Inf(-1)},
	}
	for _, p := range bad {
		if p.IsFinite() {
			t.Fatalf("%v reported finite", p)
		}
	}
}

func TestAABBExtend(t *testing.T) {
	b := EmptyAABB()
	if b.IsValid() {
		t.Fatal("empty box is valid")
	}
	b.Extend(Point3{1, 2, 3})
	b.Extend(Point3{-1, 5, 0})
	if !b.IsValid() {
		t.Fatal("extended box invalid")
	}
	if b.Min != (Point3{-1, 2, 0}) || b.Max != (Point3{1, 5, 3}) {
		t.Fatalf("bounds = %v", b)
	}
	if b.MaxDim() != 3 {
		t.Fatalf("MaxDim = %v, want 3", b.MaxDim())
	}
	if !b.Contains(Point3{0, 3, 1}) {
		t.Fatal("Contains(inside) = false")
	}
	if b.Contains(Point3{2, 3, 1}) {
		t.Fatal("Contains(outside) = true")
	}
}

func TestCloudValidate(t *testing.T) {
	c := NewCloud(3, 2)
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	c.Feat = c.Feat[:5]
	if err := c.Validate(); err == nil {
		t.Fatal("truncated features: want error")
	}
	c = NewCloud(3, 0)
	c.Labels = make([]int32, 2)
	if err := c.Validate(); err == nil {
		t.Fatal("short labels: want error")
	}
}

func TestCloudSelect(t *testing.T) {
	c := NewCloud(4, 2)
	for i := range c.Points {
		c.Points[i] = Point3{X: float64(i)}
		c.FeatureRow(i)[0] = float32(i)
		c.FeatureRow(i)[1] = float32(i * 10)
	}
	c.Labels = []int32{0, 1, 2, 3}
	out := c.Select([]int{3, 1, 1})
	if out.Len() != 3 {
		t.Fatalf("Len = %d", out.Len())
	}
	if out.Points[0].X != 3 || out.Points[1].X != 1 || out.Points[2].X != 1 {
		t.Fatalf("points = %v", out.Points)
	}
	if out.FeatureRow(0)[1] != 30 {
		t.Fatalf("features not carried: %v", out.FeatureRow(0))
	}
	if out.Labels[0] != 3 {
		t.Fatalf("labels not carried: %v", out.Labels)
	}
}

func TestCloudPermute(t *testing.T) {
	c := NewCloud(3, 1)
	for i := range c.Points {
		c.Points[i] = Point3{X: float64(i)}
		c.FeatureRow(i)[0] = float32(i)
	}
	c.Labels = []int32{10, 11, 12}
	if err := c.Permute([]int{2, 0, 1}); err != nil {
		t.Fatal(err)
	}
	if c.Points[0].X != 2 || c.Points[1].X != 0 || c.Points[2].X != 1 {
		t.Fatalf("points = %v", c.Points)
	}
	if c.Feat[0] != 2 || c.Labels[0] != 12 {
		t.Fatal("features/labels not permuted together")
	}
}

func TestCloudPermuteRejectsInvalid(t *testing.T) {
	c := NewCloud(3, 0)
	if err := c.Permute([]int{0, 1}); err == nil {
		t.Fatal("short permutation: want error")
	}
	if err := c.Permute([]int{0, 0, 1}); err == nil {
		t.Fatal("duplicate permutation: want error")
	}
	if err := c.Permute([]int{0, 1, 5}); err == nil {
		t.Fatal("out-of-range permutation: want error")
	}
}

func TestCloudClone(t *testing.T) {
	c := NewCloud(2, 1)
	c.Labels = []int32{1, 2}
	d := c.Clone()
	d.Points[0].X = 99
	d.Feat[0] = 7
	d.Labels[0] = 9
	if c.Points[0].X == 99 || c.Feat[0] == 7 || c.Labels[0] == 9 {
		t.Fatal("Clone shares storage with original")
	}
}

func TestDropNonFinite(t *testing.T) {
	c := NewCloud(4, 1)
	c.Points[1].X = math.NaN()
	c.Points[3].Y = math.Inf(1)
	c.Labels = []int32{0, 1, 2, 3}
	for i := range c.Points {
		c.FeatureRow(i)[0] = float32(i)
	}
	removed := c.DropNonFinite()
	if removed != 2 || c.Len() != 2 {
		t.Fatalf("removed %d, len %d", removed, c.Len())
	}
	if c.Labels[1] != 2 || c.FeatureRow(1)[0] != 2 {
		t.Fatal("labels/features misaligned after drop")
	}
	if c.DropNonFinite() != 0 {
		t.Fatal("second pass removed points")
	}
}

func TestBoundsEmptyCloud(t *testing.T) {
	c := NewCloud(0, 0)
	if c.Bounds().IsValid() {
		t.Fatal("empty cloud bounds should be invalid")
	}
}

// TestAABBExtendMatchesMathMinMax pins Extend to the math.Min / math.Max
// formula it replaced, bit for bit, with every special value as the old
// bound and as the coordinate, on every axis: NaNs of three payloads and
// signs, ±0, ±Inf and ordinary numbers.
func TestAABBExtendMatchesMathMinMax(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000abc), math.Float64frombits(0xfff8000000000000),
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1,
	}
	bits := func(b AABB) [6]uint64 {
		return [6]uint64{
			math.Float64bits(b.Min.X), math.Float64bits(b.Min.Y), math.Float64bits(b.Min.Z),
			math.Float64bits(b.Max.X), math.Float64bits(b.Max.Y), math.Float64bits(b.Max.Z),
		}
	}
	axis := func(p *Point3, a int) *float64 { return [3]*float64{&p.X, &p.Y, &p.Z}[a] }
	for a := 0; a < 3; a++ {
		for _, lo := range vals {
			for _, hi := range vals {
				for _, v := range vals {
					box := AABB{Min: Point3{-2, -2, -2}, Max: Point3{2, 2, 2}}
					*axis(&box.Min, a), *axis(&box.Max, a) = lo, hi
					p := Point3{0.5, 0.5, 0.5}
					*axis(&p, a) = v
					want := box
					want.Min.X, want.Max.X = math.Min(want.Min.X, p.X), math.Max(want.Max.X, p.X)
					want.Min.Y, want.Max.Y = math.Min(want.Min.Y, p.Y), math.Max(want.Max.Y, p.Y)
					want.Min.Z, want.Max.Z = math.Min(want.Min.Z, p.Z), math.Max(want.Max.Z, p.Z)
					box.Extend(p)
					if bits(box) != bits(want) {
						t.Fatalf("axis %d, box [%v, %v], point %v: got %x, want %x", a, lo, hi, v, bits(box), bits(want))
					}
				}
			}
		}
	}
}

// TestBoundsOfMatchesMathFold checks BoundsOf, with its two register folds
// and its NaN fallback, against the sequential math.Min / math.Max fold,
// bit for bit: clouds of every length up to 9 whose coordinates are drawn
// from special values, and longer ones with a special value now and then.
func TestBoundsOfMatchesMathFold(t *testing.T) {
	vals := []float64{
		math.NaN(), math.Float64frombits(0xfff8000000000000), 0, math.Copysign(0, -1),
		math.Inf(1), math.Inf(-1), 1, -1, 2.5,
	}
	fold := func(pts []Point3) AABB {
		inf := math.Inf(1)
		b := AABB{Min: Point3{inf, inf, inf}, Max: Point3{-inf, -inf, -inf}}
		for _, p := range pts {
			b.Min = Point3{math.Min(b.Min.X, p.X), math.Min(b.Min.Y, p.Y), math.Min(b.Min.Z, p.Z)}
			b.Max = Point3{math.Max(b.Max.X, p.X), math.Max(b.Max.Y, p.Y), math.Max(b.Max.Z, p.Z)}
		}
		return b
	}
	bits := func(b AABB) [6]uint64 {
		return [6]uint64{
			math.Float64bits(b.Min.X), math.Float64bits(b.Min.Y), math.Float64bits(b.Min.Z),
			math.Float64bits(b.Max.X), math.Float64bits(b.Max.Y), math.Float64bits(b.Max.Z),
		}
	}
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 20000; trial++ {
		n := trial % 10
		if trial%7 == 0 {
			n = 10 + rng.Intn(300)
		}
		pts := make([]Point3, n)
		for i := range pts {
			c := [3]float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
			for a := range c {
				if n < 10 || rng.Intn(40) == 0 {
					c[a] = vals[rng.Intn(len(vals))]
				}
			}
			pts[i] = Point3{c[0], c[1], c[2]}
		}
		want := fold(pts)
		if got := BoundsOf(pts); bits(got) != bits(want) {
			t.Fatalf("BoundsOf(%v) = %v, want %v", pts, got, want)
		}
	}
}

// TestCheckSpan: the span check passes a cloud whose squared diagonal is
// below MaxSpanSq, however large its coordinates, and names the first
// non-finite point or the diagonal otherwise.
func TestCheckSpan(t *testing.T) {
	line := func(step float64) []Point3 {
		pts := make([]Point3, 64)
		for i := range pts {
			pts[i] = Point3{X: float64(i) * step, Y: 1, Z: -2}
		}
		return pts
	}
	shifted := line(1)
	for i := range shifted {
		shifted[i].Y = 1e200 // far from the origin, but a narrow cloud
	}
	for _, tc := range []struct {
		name string
		pts  []Point3
		want string // "" for no error
	}{
		{"empty", nil, ""},
		{"one point", []Point3{{X: 1e300}}, ""},
		{"unit line", line(1), ""},
		{"far but narrow", shifted, ""},
		{"just under", line(1.5e148), ""}, // diagonal² ≈ 8.9e299
		{"just over", line(1.6e148), "diagonal"},
		{"overflowing", line(1e155), "diagonal"},
		{"nan", append(line(1), Point3{Y: math.NaN()}), "point 64 has a non-finite"},
		{"inf", append([]Point3{{Z: math.Inf(-1)}}, line(1)...), "point 0 has a non-finite"},
	} {
		box, err := CheckSpan(tc.pts)
		if tc.want == "" && err != nil || tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)) {
			t.Fatalf("%s: got %v, want %q", tc.name, err, tc.want)
		}
		if want := BoundsOf(tc.pts); err == nil && box != want {
			t.Fatalf("%s: box %v, want BoundsOf's %v", tc.name, box, want)
		}
	}
}

// TestInsertTopKMatchesSort holds InsertTopK, fed candidates in any order,
// to a sort of the non-NaN ones under (distance, index): ties, +Inf and NaN
// distances, k from 1 past the candidate count.
func TestInsertTopKMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	values := []float64{0, 1, 1, 2, math.Inf(1), math.NaN()}
	for trial := 0; trial < 5000; trial++ {
		n := rng.Intn(10)
		k := 1 + rng.Intn(n+2)
		dist := make([]float64, n)
		for i := range dist {
			dist[i] = values[rng.Intn(len(values))]
		}
		idx, d := make([]int, k), make([]float64, k)
		ClearTopK(idx, d)
		for _, i := range rng.Perm(n) {
			InsertTopK(idx, d, i, dist[i])
		}
		var want []int
		for i, v := range dist {
			if !math.IsNaN(v) {
				want = append(want, i)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			x, y := dist[want[a]], dist[want[b]]
			return x < y || x == y && want[a] < want[b]
		})
		for j := range idx {
			wi, wd := -1, math.Inf(1)
			if j < len(want) {
				wi, wd = want[j], dist[want[j]]
			}
			if idx[j] != wi || d[j] != wd {
				t.Fatalf("distances %v, k=%d: slot %d is (%v, %d), want (%v, %d)", dist, k, j, d[j], idx[j], wd, wi)
			}
		}
	}
}
