package morton

import (
	"math/rand"
	"runtime"
	"testing"
)

// TestRadixOrderParallelMatchesStdOrder pins the radix sort against the
// stable comparison sort at GOMAXPROCS 4, on duplicate-heavy inputs, where
// stability is the whole point, and on codes of one to six varying digits.
// The sort is serial; the name is from when its passes split across workers.
func TestRadixOrderParallelMatchesStdOrder(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)

	rng := rand.New(rand.NewSource(21))
	cases := []struct {
		n    int
		vals uint64 // distinct code count; small → many duplicates
	}{
		{2049, 7},
		{10000, 13},
		{10000, 1 << 11},
		{10000, 1 << 22},
		{10000, 1 << 30},
		{10000, 1 << 44},
		{10000, 1 << 63},
	}
	for _, c := range cases {
		codes := make([]uint64, c.n)
		for i := range codes {
			codes[i] = rng.Uint64() % c.vals
		}
		r := RadixOrder(codes)
		s := StdOrder(codes)
		for i := range s {
			if r[i] != s[i] {
				t.Fatalf("n=%d vals=%d: radix differs from std at %d: %d vs %d",
					c.n, c.vals, i, r[i], s[i])
			}
		}
	}
}

// TestOrderIntoReusesBuffers sorts codes with one, two and three varying
// digits — the result lands in dst whatever the pass count — into kept
// buffers, dirty from the last call, and once with a scratch too short to
// use.
func TestOrderIntoReusesBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	dst, scratch := make([]int32, 0, 600), make([]int32, 600)
	for round, shift := range []uint{0, 11, 22, 33, 0} {
		codes := make([]uint64, 500+round)
		for i := range codes {
			codes[i] = rng.Uint64() % 97 << shift // one digit
			if round == 2 || round == 3 {
				codes[i] |= rng.Uint64() % 5 // two
			}
			if round == 3 {
				codes[i] |= rng.Uint64() % 3 << 11 // three
			}
		}
		s := scratch
		if round == 4 {
			s = s[:10]
		}
		got := OrderInto(dst, s, codes)
		if &got[0] != &dst[:1][0] {
			t.Fatalf("round %d: the order is not in dst", round)
		}
		want := StdOrder(codes)
		for j := range want {
			if int(got[j]) != want[j] {
				t.Fatalf("round %d: position %d holds %d, want %d", round, j, got[j], want[j])
			}
		}
	}
}
