package morton

import (
	"math/rand"
	"testing"

	"repro/internal/geom"
)

func benchCodes(n int, seed int64) []uint64 {
	rng := rand.New(rand.NewSource(seed))
	codes := make([]uint64, n)
	for i := range codes {
		codes[i] = uint64(rng.Int63()) & ((1 << 30) - 1)
	}
	return codes
}

// The §5.1.2 anchor: Morton code generation for 8 192 points (0.1 ms on the
// paper's GPU; host wall-clock here).
func BenchmarkEncodeCloud8192(b *testing.B) {
	cloud := geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: 8192, Seed: 1})
	enc, err := NewEncoder(cloud.Bounds(), 32)
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]uint64, 8192)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = enc.EncodeCloud(cloud, buf)
	}
	b.SetBytes(8192 * 8)
}

func BenchmarkEncode3(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink ^= Encode3(uint32(i), uint32(i>>1), uint32(i>>2))
	}
	_ = sink
}

// The sort-algorithm ablation (DESIGN.md §5.5).
func BenchmarkAblationSortRadix8192(b *testing.B) {
	codes := benchCodes(8192, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RadixOrder(codes)
	}
}

func BenchmarkAblationSortStd8192(b *testing.B) {
	codes := benchCodes(8192, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StdOrder(codes)
	}
}

func BenchmarkAblationSortRadix65536(b *testing.B) {
	codes := benchCodes(65536, 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		RadixOrder(codes)
	}
}

// BenchmarkOrderInto8192 is the radix order into kept buffers, as a model
// graph's structurization runs it.
func BenchmarkOrderInto8192(b *testing.B) {
	codes := benchCodes(8192, 2)
	dst, scratch := make([]int32, 8192), make([]int32, 8192)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dst = OrderInto(dst, scratch, codes)
	}
}
