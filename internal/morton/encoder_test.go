package morton

import (
	"math"
	"testing"

	"repro/internal/geom"
)

// fig8Points are the five points of the paper's Fig. 8/10 worked examples,
// recovered from their published Morton codes ({185, 23, 114, 0, 67} at
// grid size r = 1) and consistent with the FPS distance array of Fig. 8(a)
// ({0, 14, 10, 49, 33} after sampling P0).
func fig8Points() []geom.Point3 {
	return []geom.Point3{
		{X: 3, Y: 6, Z: 2}, // P0 → 185
		{X: 1, Y: 3, Z: 1}, // P1 → 23
		{X: 4, Y: 3, Z: 2}, // P2 → 114
		{X: 0, Y: 0, Z: 0}, // P3 → 0
		{X: 5, Y: 1, Z: 0}, // P4 → 67
	}
}

func fig8Cloud() *geom.Cloud {
	c := geom.NewCloud(0, 0)
	c.Points = fig8Points()
	return c
}

func TestPaperWorkedExampleFig8Codes(t *testing.T) {
	enc, err := NewEncoderWithGrid(geom.Point3{}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.EncodeCloud(fig8Cloud(), nil)
	want := []uint64{185, 23, 114, 0, 67}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
	perm := Order(got)
	wantPerm := []int{3, 1, 4, 2, 0}
	for i := range wantPerm {
		if perm[i] != wantPerm[i] {
			t.Fatalf("sorted index array = %v, want %v", perm, wantPerm)
		}
	}
}

func TestPaperWorkedExampleFig8GridSize4(t *testing.T) {
	// "if the grid size is defined as r=4, then the Morton codes would
	// become {2, 0, 1, 0, 1}, for which the sorted indexes are {1,3,2,4,0}".
	enc, err := NewEncoderWithGrid(geom.Point3{}, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	got := enc.EncodeCloud(fig8Cloud(), nil)
	want := []uint64{2, 0, 1, 0, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("codes = %v, want %v", got, want)
		}
	}
	perm := Order(got)
	wantPerm := []int{1, 3, 2, 4, 0}
	for i := range wantPerm {
		if perm[i] != wantPerm[i] {
			t.Fatalf("sorted index array = %v, want %v", perm, wantPerm)
		}
	}
}

func TestNewEncoderGridSize(t *testing.T) {
	// §5.1.3: r = D / 2^⌊a/3⌋.
	b := geom.AABB{Min: geom.Point3{}, Max: geom.Point3{X: 8, Y: 4, Z: 2}}
	enc, err := NewEncoder(b, 32)
	if err != nil {
		t.Fatal(err)
	}
	if enc.BitsPerAxis != 10 {
		t.Fatalf("BitsPerAxis = %d, want 10", enc.BitsPerAxis)
	}
	want := 8.0 / 1024
	if math.Abs(enc.R-want) > 1e-12 {
		t.Fatalf("R = %v, want %v", enc.R, want)
	}
	if enc.TotalBits() != 30 {
		t.Fatalf("TotalBits = %d, want 30", enc.TotalBits())
	}
}

func TestNewEncoderRejectsBadBits(t *testing.T) {
	b := geom.AABB{Max: geom.Point3{X: 1, Y: 1, Z: 1}}
	for _, bits := range []int{0, 1, 2, 64, -3} {
		if _, err := NewEncoder(b, bits); err == nil {
			t.Errorf("NewEncoder with %d bits: want error", bits)
		}
	}
}

func TestNewEncoderDegenerateBounds(t *testing.T) {
	// Zero-extent box: encoding must stay total (unit grid).
	b := geom.AABB{Min: geom.Point3{X: 1, Y: 1, Z: 1}, Max: geom.Point3{X: 1, Y: 1, Z: 1}}
	enc, err := NewEncoder(b, 30)
	if err != nil {
		t.Fatal(err)
	}
	if enc.R != 1 {
		t.Fatalf("degenerate bounds: R = %v, want 1", enc.R)
	}
	// Must not panic on any input.
	_ = enc.Code(geom.Point3{X: math.NaN()})
	_ = enc.Code(geom.Point3{X: math.Inf(1)})
}

func TestEncoderWithGridRejectsBadInput(t *testing.T) {
	if _, err := NewEncoderWithGrid(geom.Point3{}, 0, 10); err == nil {
		t.Error("zero grid size: want error")
	}
	if _, err := NewEncoderWithGrid(geom.Point3{}, math.NaN(), 10); err == nil {
		t.Error("NaN grid size: want error")
	}
	if _, err := NewEncoderWithGrid(geom.Point3{}, 1, 0); err == nil {
		t.Error("zero bits per axis: want error")
	}
	if _, err := NewEncoderWithGrid(geom.Point3{}, 1, 22); err == nil {
		t.Error("22 bits per axis: want error")
	}
}

func TestEncoderClampsOutOfRange(t *testing.T) {
	enc, err := NewEncoderWithGrid(geom.Point3{}, 1, 3) // voxel range [0, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Below min clamps to voxel 0; far above clamps to voxel 7.
	lo := enc.Code(geom.Point3{X: -100, Y: -100, Z: -100})
	if lo != Encode3(0, 0, 0) {
		t.Fatalf("below-min code = %d, want 0", lo)
	}
	hi := enc.Code(geom.Point3{X: 100, Y: 100, Z: 100})
	if hi != Encode3(7, 7, 7) {
		t.Fatalf("above-max code = %d, want %d", hi, Encode3(7, 7, 7))
	}
}

func TestEncoderMemoryBytes(t *testing.T) {
	// §5.1.3: Na/8 bytes for N points at a-bit codes.
	enc, err := NewEncoderWithGrid(geom.Point3{}, 1, 10) // a = 30
	if err != nil {
		t.Fatal(err)
	}
	if got := enc.MemoryBytes(8192); got != 8192*4 {
		t.Fatalf("MemoryBytes = %d, want %d (30-bit codes round up to 4 bytes)", got, 8192*4)
	}
}

func TestEncodeCloudSpatialLocality(t *testing.T) {
	// Points in the same voxel share a code; points in far voxels differ.
	enc, err := NewEncoderWithGrid(geom.Point3{}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	a := enc.Code(geom.Point3{X: 0.2, Y: 0.3, Z: 0.4})
	b := enc.Code(geom.Point3{X: 0.9, Y: 0.1, Z: 0.99})
	if a != b {
		t.Fatalf("same-voxel codes differ: %d vs %d", a, b)
	}
	far := enc.Code(geom.Point3{X: 900, Y: 900, Z: 900})
	if far == a {
		t.Fatal("far voxel shares the code of voxel (0,0,0)")
	}
}

func TestEncodeCloudReusesBuffer(t *testing.T) {
	enc, err := NewEncoderWithGrid(geom.Point3{}, 1, 10)
	if err != nil {
		t.Fatal(err)
	}
	c := fig8Cloud()
	buf := make([]uint64, 0, 16)
	out := enc.EncodeCloud(c, buf)
	if cap(out) != cap(buf) {
		t.Fatal("EncodeCloud did not reuse the provided buffer")
	}
}

// floorVoxel is the voxel formula through math.Floor that Encoder.voxel
// replaced, kept as its oracle.
func floorVoxel(e *Encoder, v, min float64) uint32 {
	idx := math.Floor((v - min) / e.R)
	limit := float64(uint64(1)<<uint(e.BitsPerAxis) - 1)
	if math.IsNaN(idx) || idx < 0 {
		return 0
	}
	if idx > limit {
		return uint32(limit)
	}
	return uint32(idx)
}

// FuzzVoxelMatchesFloor checks voxel against floorVoxel on every input: NaN
// and ±Inf coordinates, corners and grid sizes, −0, coordinates exactly on a
// voxel boundary and just below it, and coordinates past either end of the
// grid.
func FuzzVoxelMatchesFloor(f *testing.F) {
	nan, inf, negZero := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	below := func(x float64) float64 { return math.Nextafter(x, math.Inf(-1)) }
	for _, s := range []struct {
		v, min, r float64
		bits      uint8 // per axis
	}{
		{0, 0, 1, 10}, {negZero, 0, 1, 10}, {0, negZero, 1, 10}, {negZero, negZero, 0.5, 3},
		{nan, 0, 1, 10}, {1, nan, 1, 10}, {1, 0, nan, 10},
		{inf, 0, 1, 10}, {-inf, 0, 1, 10}, {inf, inf, 1, 10}, {1, -inf, 1, 10}, {1, 0, inf, 10},
		{3, 0, 1, 10}, {below(3), 0, 1, 10}, {0.3, 0.1, 0.1, 10}, {below(0), 0, 1, 10},
		{1023, 0, 1, 10}, {below(1024), 0, 1, 10}, {1024, 0, 1, 10}, {1e300, 0, 1, 10},
		{-1e300, 0, 1, 10}, {7.9999, 0, 1, 3}, {8, 0, 1, 3}, {1 << 21, 0, 1, 21},
		{below(1 << 21), 0, 1, 21}, {2.5, 1, 1e-300, 21}, {1, 0, 5e-324, 1},
	} {
		f.Add(s.v, s.min, s.r, s.bits-1)
	}
	f.Fuzz(func(t *testing.T, v, min, r float64, bits uint8) {
		e := &Encoder{R: r, BitsPerAxis: int(bits)%MaxBitsPerAxis + 1}
		if got, want := e.voxel(v, min), floorVoxel(e, v, min); got != want {
			t.Fatalf("voxel(%v, %v) with R=%v, %d bits = %d, want %d", v, min, r, e.BitsPerAxis, got, want)
		}
	})
}
