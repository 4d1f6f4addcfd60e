package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func TestBackendRegistry(t *testing.T) {
	names := BackendNames()
	want := []string{BackendBlocked, BackendInt8, BackendNaive}
	if len(names) != len(want) {
		t.Fatalf("registered backends %v, want %v", names, want)
	}
	for i, n := range want {
		if names[i] != n {
			t.Fatalf("registered backends %v, want %v", names, want)
		}
	}
	for _, n := range names {
		be, err := NewBackend(n)
		if err != nil {
			t.Fatalf("NewBackend(%q): %v", n, err)
		}
		if be.Name() != n {
			t.Fatalf("NewBackend(%q).Name() = %q", n, be.Name())
		}
	}
	// Unknown names, the empty one included, fail with the list.
	for _, name := range []string{"tensor-core", ""} {
		_, err := NewBackend(name)
		if err == nil {
			t.Fatalf("unknown backend name %q accepted", name)
		}
		for _, frag := range append([]string{fmt.Sprintf("%q", name), "registered:"}, want...) {
			if !strings.Contains(err.Error(), frag) {
				t.Fatalf("error %q does not mention %q", err, frag)
			}
		}
	}
}

func TestInt8InstancesAreIndependent(t *testing.T) {
	a, err := NewBackend(BackendInt8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBackend(BackendInt8)
	if err != nil {
		t.Fatal(err)
	}
	if a.(*Int8Backend) == b.(*Int8Backend) {
		t.Fatal("NewBackend returned a shared int8 instance; replicas need private state")
	}
}

// randomMatrix fills a rows×cols matrix from rng with values in [-2, 2).
func randomMatrix(rows, cols int, rng *rand.Rand) *Matrix {
	m := New(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.Float64()*4 - 2)
	}
	return m
}

// maxAbsDiff returns the largest element-wise |a−b|.
func maxAbsDiff(a, b *Matrix) float64 {
	var max float64
	for i, v := range a.Data {
		d := float64(v - b.Data[i])
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}

// TestQuickBlockedMatMulMatchesNaive is the satellite property test: across
// random shapes — including ragged edges smaller than one tile — the blocked
// MatMul stays within 1e-5 of the reference kernel. (The tiled kernels
// preserve the per-cell accumulation order, so in practice the match is
// bit-exact; 1e-5 is the documented contract.)
func TestQuickBlockedMatMulMatchesNaive(t *testing.T) {
	be := Blocked()
	f := func(mSeed int64, m8, k8, n8 uint8) bool {
		rng := rand.New(rand.NewSource(mSeed))
		// 1..68: covers sub-tile shapes (1–3), exact tiles, and tile+ragged.
		m := int(m8%68) + 1
		k := int(k8%68) + 1
		n := int(n8%68) + 1
		a := randomMatrix(m, k, rng)
		b := randomMatrix(k, n, rng)
		ref := New(m, n)
		got := New(m, n)
		if err := MatMulInto(ref, a, b); err != nil {
			t.Fatal(err)
		}
		if err := be.MatMulInto(got, a, b); err != nil {
			t.Fatal(err)
		}
		if d := maxAbsDiff(ref, got); d > 1e-5 {
			t.Logf("MatMul %dx%d · %dx%d diff %g", m, k, k, n, d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickInt8RoundTrip is the satellite property test: symmetric max-abs
// quantization reconstructs every element of a channel to within scale/2.
func TestQuickInt8RoundTrip(t *testing.T) {
	f := func(seed int64, n8 uint8, span float64) bool {
		n := int(n8) + 1
		rng := rand.New(rand.NewSource(seed))
		if span < 0 {
			span = -span
		}
		span = span/2 + 0.01 // keep magnitudes sane and nonzero
		src := make([]float32, n)
		for i := range src {
			src[i] = float32((rng.Float64()*2 - 1) * span)
		}
		q := make([]int8, n)
		scale := QuantizeInt8(q, src)
		back := make([]float32, n)
		DequantizeInt8(back, q, scale)
		bound := float64(scale) / 2
		for i := range src {
			d := float64(src[i] - back[i])
			if d < 0 {
				d = -d
			}
			// Allow one float32 ulp of slack on the exact half-scale bound.
			if d > bound*(1+1e-6) {
				t.Logf("n=%d scale=%g element %d: %g -> %g (err %g > %g)", n, scale, i, src[i], back[i], d, bound)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	// The all-zero channel quantizes to scale 0 and reconstructs exactly.
	q := make([]int8, 4)
	if scale := QuantizeInt8(q, make([]float32, 4)); scale != 0 {
		t.Fatalf("all-zero channel scale %g, want 0", scale)
	}
}

// TestInt8MatMulWithinAnalyticBound checks the quantized matmul against the
// reference with the per-element error bound implied by the quantization
// scheme: each of the k partial products can be off by at most
// sA/2·|b| + sB/2·|a| + sA·sB/4.
func TestInt8MatMulWithinAnalyticBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, shape := range [][3]int{{1, 1, 1}, {5, 3, 4}, {17, 16, 9}, {64, 32, 48}, {33, 7, 5}} {
		m, k, n := shape[0], shape[1], shape[2]
		a := randomMatrix(m, k, rng)
		b := randomMatrix(k, n, rng)
		ref := New(m, n)
		got := New(m, n)
		if err := MatMulInto(ref, a, b); err != nil {
			t.Fatal(err)
		}
		be := NewInt8()
		if err := be.MatMulInto(got, a, b); err != nil {
			t.Fatal(err)
		}
		// Recover the scales the backend used.
		qRow := make([]int8, k)
		colScale := make([]float32, n)
		for j := 0; j < n; j++ {
			var maxAbs float32
			for r := 0; r < k; r++ {
				v := b.At(r, j)
				if v < 0 {
					v = -v
				}
				if v > maxAbs {
					maxAbs = v
				}
			}
			colScale[j] = maxAbs / 127
		}
		for i := 0; i < m; i++ {
			sA := float64(QuantizeInt8(qRow, a.Row(i)))
			for j := 0; j < n; j++ {
				sB := float64(colScale[j])
				var bound float64
				for kk := 0; kk < k; kk++ {
					av, bv := float64(a.At(i, kk)), float64(b.At(kk, j))
					if av < 0 {
						av = -av
					}
					if bv < 0 {
						bv = -bv
					}
					bound += sA/2*bv + sB/2*av + sA*sB/4
				}
				d := float64(got.At(i, j) - ref.At(i, j))
				if d < 0 {
					d = -d
				}
				if d > bound*(1+1e-5)+1e-7 {
					t.Fatalf("%dx%dx%d cell (%d,%d): |%g - %g| = %g exceeds bound %g",
						m, k, n, i, j, got.At(i, j), ref.At(i, j), d, bound)
				}
			}
		}
	}
}

// TestInt8WeightCacheReuse pins the calibration contract: the same weight
// matrix is quantized once per backend instance, repeated calls agree
// bit-exactly, and Invalidate forces a re-calibration after in-place edits.
func TestInt8WeightCacheReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(6, 8, rng)
	w := randomMatrix(8, 5, rng)
	be := NewInt8()
	out1 := New(6, 5)
	out2 := New(6, 5)
	if err := be.MatMulInto(out1, a, w); err != nil {
		t.Fatal(err)
	}
	if len(be.weights) != 1 {
		t.Fatalf("cache holds %d entries after first call, want 1", len(be.weights))
	}
	if err := be.MatMulInto(out2, a, w); err != nil {
		t.Fatal(err)
	}
	if len(be.weights) != 1 {
		t.Fatalf("cache holds %d entries after second call, want 1", len(be.weights))
	}
	if !out1.Equal(out2) {
		t.Fatal("repeated quantized matmul not deterministic")
	}
	// Mutating the weights in place without Invalidate serves stale codes by
	// design; Invalidate re-calibrates.
	for i := range w.Data {
		w.Data[i] *= 2
	}
	be.Invalidate()
	if len(be.weights) != 0 {
		t.Fatalf("cache holds %d entries after Invalidate, want 0", len(be.weights))
	}
	if err := be.MatMulInto(out2, a, w); err != nil {
		t.Fatal(err)
	}
	// Doubling the weights doubles every (max-abs) scale, so the quantized
	// product doubles exactly.
	for i, v := range out2.Data {
		if want := out1.Data[i] * 2; v != want {
			t.Fatalf("element %d after re-calibration: %g, want %g", i, v, want)
		}
	}
}

// TestBackendValidationMatchesReference pins that every backend rejects the
// same shape and aliasing misuse the reference kernels do.
func TestBackendValidationMatchesReference(t *testing.T) {
	for _, name := range BackendNames() {
		be, err := NewBackend(name)
		if err != nil {
			t.Fatal(err)
		}
		a := New(2, 3)
		b := New(3, 4)
		if err := be.MatMulInto(New(2, 5), a, b); err == nil {
			t.Fatalf("%s: bad destination shape accepted", name)
		}
		if err := be.MatMulInto(a, a, b); err == nil {
			t.Fatalf("%s: aliased destination accepted", name)
		}
		out := New(2, 4)
		if err := be.MatMulInto(out, a, b); err != nil {
			t.Fatalf("%s: valid matmul rejected: %v", name, err)
		}
		if err := be.MatMulBiasInto(out, a, b, make([]float32, 3)); err == nil {
			t.Fatalf("%s: bias of the wrong length accepted", name)
		}
		if err := be.MatMulBiasInto(New(2, 5), a, b, make([]float32, 5)); err == nil {
			t.Fatalf("%s: bad destination shape accepted with a bias", name)
		}
	}
}

// oddMatrix is a random matrix salted with the values an epilogue can get
// wrong: NaN, ±Inf, −0, and (every fifth column) a constant or all-negative
// column.
func oddMatrix(rng *rand.Rand, rows, cols int) *Matrix {
	m := randomMatrix(rows, cols, rng)
	odd := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.Copysign(0, -1)), 0}
	for i := 0; i < len(m.Data); i += 1 + rng.Intn(97) {
		m.Data[i] = odd[rng.Intn(len(odd))]
	}
	for c := 4; c < cols; c += 5 {
		for r := 0; r < rows; r++ {
			if c%2 == 0 {
				m.Set(r, c, 0.75)
			} else {
				m.Set(r, c, -float32(math.Abs(float64(m.At(r, c))))-1)
			}
		}
	}
	return m
}

// sameBits is float32 bit equality, −0 distinct from +0, with one allowance:
// any NaN equals any NaN. Which operand's sign and payload an add of two NaNs
// keeps is the first one's on amd64, and Go lets the compiler commute the
// operands, so two spellings of one sum may differ there and nowhere else.
func sameBits(a, b float32) bool {
	return math.Float32bits(a) == math.Float32bits(b) || (a != a && b != b)
}

// TestMatMulBiasIntoIsMatMulIntoPlusBias pins the fused store: on every
// backend, at every core count, MatMulBiasInto's bits are those of the same
// backend's MatMulInto followed by the reference bias sweep — across shapes
// that straddle the row tile (4), the k tile (4) and the work-sized split,
// with non-finite and signed-zero operands.
func TestMatMulBiasIntoIsMatMulIntoPlusBias(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(21))
	for _, procs := range []int{1, 2, 3, 4, 8} {
		runtime.GOMAXPROCS(procs)
		shapes := []struct{ m, k, n int }{
			{1, 1, 1}, {2, 3, 4}, {3, 6, 16}, {5, 19, 3}, {255, 35, 6}, {256, 67, 19}, {2049, 4, 1},
		}
		// GOMAXPROCS 1: nothing splits, no boundary to straddle. Otherwise
		// one boundary for each grain in use: the Go kernels' and blocked's.
		for _, grain := range []int{minMatMulWork, blockedMinWork} {
			if procs > 1 {
				split := firstParallel(t, func(rows int) int { return matMulWorkers(rows, 19, 16, grain) })
				shapes = append(shapes, []struct{ m, k, n int }{{split - 1, 19, 16}, {split, 19, 16}, {split + 1, 19, 16}}...)
			}
		}
		for _, s := range shapes {
			a, b := oddMatrix(rng, s.m, s.k), oddMatrix(rng, s.k, s.n)
			bias := oddMatrix(rng, 1, s.n).Data
			for _, name := range BackendNames() {
				be, err := NewBackend(name)
				if err != nil {
					t.Fatal(err)
				}
				want, got := garbageMatrix(rng, s.m, s.n), garbageMatrix(rng, s.m, s.n)
				if err := be.MatMulInto(want, a, b); err != nil {
					t.Fatal(err)
				}
				if err := AddBiasRows(want, bias); err != nil {
					t.Fatal(err)
				}
				if err := be.MatMulBiasInto(got, a, b, bias); err != nil {
					t.Fatal(err)
				}
				for i, w := range want.Data {
					if g := got.Data[i]; !sameBits(g, w) {
						t.Fatalf("%s, GOMAXPROCS %d, %dx%d·%dx%d: element %d is %x (%g), want %x (%g)",
							name, procs, s.m, s.k, s.k, s.n, i, math.Float32bits(g), g, math.Float32bits(w), w)
					}
				}
			}
		}
	}
}

// TestBlockedBackendConcurrent exercises the shared blocked instance from
// several goroutines at once (each with private outputs) — the weight-sharing
// replica pattern — under the race detector in CI's kernel-parity stage.
func TestBlockedBackendConcurrent(t *testing.T) {
	be := Blocked()
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(64, 32, rng)
	b := randomMatrix(32, 48, rng)
	ref := New(64, 48)
	if err := MatMulInto(ref, a, b); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make([]error, 8)
	outs := make([]*Matrix, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := New(64, 48)
			for it := 0; it < 10; it++ {
				if err := be.MatMulInto(out, a, b); err != nil {
					errs[g] = err
					return
				}
			}
			outs[g] = out
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
		if d := maxAbsDiff(ref, outs[g]); d > 1e-5 {
			t.Fatalf("goroutine %d diverged by %g", g, d)
		}
	}
}

// --- Fig. 3 microbenchmarks across backends (the committed per-backend rows
// are bench/'s tensor.matmul.*_ms, at the shapes of a real frame) ---

// benchBackendMatMul times the shared-MLP shape of the feature-compute stage:
// many point rows through a square-ish weight panel.
func benchBackendMatMul(b *testing.B, name string) {
	be, err := NewBackend(name)
	if err != nil {
		b.Fatal(err)
	}
	x := benchMatrix(2048, 128, 1)
	w := benchMatrix(128, 128, 2)
	out := New(2048, 128)
	// Warm-up: populates the int8 weight cache and activation scratch so the
	// loop times the steady state.
	if err := be.MatMulInto(out, x, w); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := be.MatMulInto(out, x, w); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(2*float64(x.Rows*x.Cols*w.Cols)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
}

func BenchmarkBackendMatMulNaive(b *testing.B)   { benchBackendMatMul(b, BackendNaive) }
func BenchmarkBackendMatMulBlocked(b *testing.B) { benchBackendMatMul(b, BackendBlocked) }
func BenchmarkBackendMatMulInt8(b *testing.B)    { benchBackendMatMul(b, BackendInt8) }
