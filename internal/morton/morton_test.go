package morton

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEncode3PaperExample(t *testing.T) {
	// §4.1: "a point with coordinate (2, 3, 4) = (010, 011, 100)b translates
	// to Morton code 282 = 100,011,010b".
	if got := Encode3(2, 3, 4); got != 282 {
		t.Fatalf("Encode3(2,3,4) = %d, want 282", got)
	}
	x, y, z := Decode3(282)
	if x != 2 || y != 3 || z != 4 {
		t.Fatalf("Decode3(282) = (%d,%d,%d), want (2,3,4)", x, y, z)
	}
}

func TestEncode3Zero(t *testing.T) {
	if got := Encode3(0, 0, 0); got != 0 {
		t.Fatalf("Encode3(0,0,0) = %d, want 0", got)
	}
}

func TestEncode3UnitAxes(t *testing.T) {
	// x occupies bit 0, y bit 1, z bit 2 of each triplet.
	cases := []struct {
		x, y, z uint32
		want    uint64
	}{
		{1, 0, 0, 1},
		{0, 1, 0, 2},
		{0, 0, 1, 4},
		{2, 0, 0, 8},
		{0, 2, 0, 16},
		{0, 0, 2, 32},
	}
	for _, c := range cases {
		if got := Encode3(c.x, c.y, c.z); got != c.want {
			t.Errorf("Encode3(%d,%d,%d) = %d, want %d", c.x, c.y, c.z, got, c.want)
		}
	}
}

func TestEncodeDecodeRoundtrip(t *testing.T) {
	f := func(x, y, z uint32) bool {
		x &= 0x1fffff
		y &= 0x1fffff
		z &= 0x1fffff
		gx, gy, gz := Decode3(Encode3(x, y, z))
		return gx == x && gy == y && gz == z
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestEncode3MaxCoordinate(t *testing.T) {
	const max = (1 << 21) - 1
	code := Encode3(max, max, max)
	if code != (1<<63)-1 {
		t.Fatalf("Encode3(max,max,max) = %#x, want all 63 bits set", code)
	}
}

func TestEncode3MasksHighBits(t *testing.T) {
	// Bits above 21 per axis must not leak into the code.
	if Encode3(1<<21, 0, 0) != Encode3(0, 0, 0) {
		t.Fatal("bit 21 of x leaked into the code")
	}
}

func TestEncode3Monotonic(t *testing.T) {
	// Along a single axis (others fixed), Morton codes are monotone.
	f := func(a, b uint32) bool {
		a &= 0x1fffff
		b &= 0x1fffff
		if a > b {
			a, b = b, a
		}
		return Encode3(a, 7, 9) <= Encode3(b, 7, 9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestLevel(t *testing.T) {
	cases := []struct {
		max  uint32
		want int
	}{{0, 0}, {1, 1}, {2, 2}, {3, 2}, {1023, 10}, {1024, 11}}
	for _, c := range cases {
		if got := Level(c.max); got != c.want {
			t.Errorf("Level(%d) = %d, want %d", c.max, got, c.want)
		}
	}
}

func TestRadixOrderMatchesStdOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(500)
		codes := make([]uint64, n)
		for i := range codes {
			// Duplicates on purpose: stability matters.
			codes[i] = uint64(rng.Intn(50))
		}
		r := RadixOrder(codes)
		s := StdOrder(codes)
		if len(r) != len(s) {
			t.Fatalf("length mismatch: %d vs %d", len(r), len(s))
		}
		for i := range r {
			if r[i] != s[i] {
				t.Fatalf("trial %d: radix and std orders differ at %d: %v vs %v", trial, i, r, s)
			}
		}
	}
}

func TestRadixOrderSortedProperty(t *testing.T) {
	f := func(codes []uint64) bool {
		perm := RadixOrder(codes)
		if len(perm) != len(codes) {
			return false
		}
		seen := make([]bool, len(codes))
		for _, p := range perm {
			if p < 0 || p >= len(codes) || seen[p] {
				return false
			}
			seen[p] = true
		}
		return IsSorted(codes, perm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRadixOrderEmptyAndSingle(t *testing.T) {
	if got := RadixOrder(nil); len(got) != 0 {
		t.Fatalf("RadixOrder(nil) = %v", got)
	}
	if got := RadixOrder([]uint64{42}); len(got) != 1 || got[0] != 0 {
		t.Fatalf("RadixOrder single = %v", got)
	}
}

func TestSortedCodes(t *testing.T) {
	codes := []uint64{30, 10, 20}
	perm := Order(codes)
	sorted := SortedCodes(codes, perm)
	want := []uint64{10, 20, 30}
	for i := range want {
		if sorted[i] != want[i] {
			t.Fatalf("SortedCodes = %v, want %v", sorted, want)
		}
	}
}

// TestSpreadFastMatchesSpread3 checks the table spread against the shifts
// on every 21-bit value and on values with bits above the 21.
func TestSpreadFastMatchesSpread3(t *testing.T) {
	for x := uint32(0); x < 1<<21; x++ {
		if got, want := spreadFast(x), spread3(uint64(x)); got != want {
			t.Fatalf("spreadFast(%#x) = %#x, want %#x", x, got, want)
		}
	}
	for _, x := range []uint32{1 << 21, 1<<32 - 1, 0xdeadbeef} {
		if got, want := spreadFast(x), spread3(uint64(x)); got != want {
			t.Fatalf("spreadFast(%#x) = %#x, want %#x", x, got, want)
		}
	}
}
