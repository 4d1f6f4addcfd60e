package sample

import (
	"math"
	"math/rand"
	"testing"
)

// applyPlanRef is ApplyPlan's loop before the kernel: zero the row, then
// add each source's weighted row in turn.
func applyPlanRef(plan *InterpPlan, src []float32, featDim int, dst []float32, ld int) {
	for i := 0; i < plan.Targets(); i++ {
		out := dst[i*ld : i*ld+featDim]
		for c := range out {
			out[c] = 0
		}
		for j := 0; j < plan.K; j++ {
			s := int(plan.Indexes[i*plan.K+j])
			w := plan.Weights[i*plan.K+j]
			for c, v := range src[s*featDim : (s+1)*featDim] {
				out[c] += float32(w * v)
			}
		}
	}
}

// specials are the values a feature or a weight takes now and then in the
// tests below: every one that rounds or propagates on its own rule.
var specials = []float32{
	float32(math.Copysign(0, -1)), 0, float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)),
	math.MaxFloat32, math.SmallestNonzeroFloat32, -1,
}

func randomFeatures(rng *rand.Rand, n int) []float32 {
	f := make([]float32, n)
	for i := range f {
		f[i] = float32(rng.NormFloat64())
		if rng.Intn(6) == 0 {
			f[i] = specials[rng.Intn(len(specials))]
		}
	}
	return f
}

func randomPlan(rng *rand.Rand, targets, k, rows int) *InterpPlan {
	plan := &InterpPlan{}
	plan.Resize(targets, k)
	for i := range plan.Indexes {
		plan.Indexes[i] = int32(rng.Intn(rows))
		plan.Weights[i] = rng.Float32()
		if rng.Intn(6) == 0 {
			plan.Weights[i] = specials[rng.Intn(len(specials))]
		}
	}
	return plan
}

// sameFloats reports whether a and b hold the same bits, taking any NaN for
// any other: which NaN an add or a multiply of two NaNs returns is its first
// operand's on x86, and the order of a commutative operation's operands is
// the compiler's choice, in the Go loops as much as in the kernel.
func sameFloats(a, b []float32) (int, bool) {
	for i := range a {
		x, y := a[i], b[i]
		if math.Float32bits(x) != math.Float32bits(y) && !(x != x && y != y) {
			return i, false
		}
	}
	return -1, true
}

// TestApplyPlanVectorMatchesGo runs ApplyPlan with the kernel and with the Go
// loops — both on an AVX2 host — against the loop they replaced, for one,
// two and three sources, widths below, at and across the eight-lane block,
// and destinations wider than the rows, whose extra columns must keep their
// sentinel. Features and weights include −0, NaN, ±Inf and extremes.
func TestApplyPlanVectorMatchesGo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const rows, targets = 40, 57
	old := applyAVX2
	defer func() { applyAVX2 = old }()
	for _, k := range []int{1, 2, 3} {
		for _, featDim := range []int{1, 2, 3, 7, 8, 9, 15, 16, 17, 24, 31, 64, 131} {
			for _, extra := range []int{0, 3} {
				ld := featDim + extra
				plan := randomPlan(rng, targets, k, rows)
				src := randomFeatures(rng, rows*featDim)
				sentinel := float32(-7.25)
				want := make([]float32, targets*ld)
				for i := range want {
					want[i] = sentinel
				}
				applyPlanRef(plan, src, featDim, want, ld)
				for _, vec := range []bool{false, true} {
					if vec && !old {
						continue
					}
					applyAVX2 = vec
					got := make([]float32, targets*ld)
					for i := range got {
						got[i] = sentinel
					}
					if _, err := ApplyPlan(plan, src, featDim, got, ld); err != nil {
						t.Fatal(err)
					}
					if i, ok := sameFloats(got, want); !ok {
						t.Fatalf("K=%d featDim=%d ld=%d vector=%v: element %d (row %d, column %d) is %v, want %v",
							k, featDim, ld, vec, i, i/ld, i%ld, got[i], want[i])
					}
				}
			}
		}
	}
	if !old {
		t.Log("no AVX2 on this host: the Go loops alone were checked")
	}
}

// TestApplyPlanNegativeZeroSumIsPositive pins the sum's 0 start: products of
// −0 sum to +0, as the loop that zeroed the row first made them, on both
// paths.
func TestApplyPlanNegativeZeroSumIsPositive(t *testing.T) {
	old := applyAVX2
	defer func() { applyAVX2 = old }()
	negZero := float32(math.Copysign(0, -1))
	plan := &InterpPlan{}
	plan.Resize(1, 3)
	copy(plan.Weights, []float32{1, 1, 1})
	for _, featDim := range []int{1, 8, 11} {
		src := make([]float32, featDim)
		for i := range src {
			src[i] = negZero
		}
		for _, vec := range []bool{false, old} {
			applyAVX2 = vec
			dst, err := ApplyPlan(plan, src, featDim, nil, featDim)
			if err != nil {
				t.Fatal(err)
			}
			for c, v := range dst {
				if math.Float32bits(v) != 0 {
					t.Fatalf("featDim %d, vector %v: column %d is %v (bits %#x), want +0", featDim, vec, c, v, math.Float32bits(v))
				}
			}
		}
	}
}

// TestApplyPlanRejectsBadPlans covers the checks that keep the kernel
// inside its operands: a source index outside src, and a plan whose weights
// do not match its indexes.
func TestApplyPlanRejectsBadPlans(t *testing.T) {
	src := []float32{1, 2, 3, 4}
	for name, plan := range map[string]*InterpPlan{
		"index past the rows": {K: 3, Indexes: []int32{0, 1, 2}, Weights: []float32{1, 0, 0}},
		"negative index":      {K: 3, Indexes: []int32{0, -1, 1}, Weights: []float32{1, 0, 0}},
		"short weights":       {K: 3, Indexes: []int32{0, 1, 1}, Weights: []float32{1, 0}},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := ApplyPlan(plan, src, 2, nil, 2); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// BenchmarkApplyPlan is the last FP module's interpolation in a W1 frame:
// 8192 targets of three sources each from 2048 rows of 16 features, into the
// left columns of the 19-wide [interp | skip] matrix.
func BenchmarkApplyPlan(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	const targets, rows, featDim, ld = 8192, 2048, 16, 19
	plan := &InterpPlan{}
	plan.Resize(targets, 3)
	for i := range plan.Indexes {
		plan.Indexes[i] = int32(min(rows-1, i/12+rng.Intn(4)))
		plan.Weights[i] = rng.Float32()
	}
	src := make([]float32, rows*featDim)
	for i := range src {
		src[i] = float32(rng.NormFloat64())
	}
	dst := make([]float32, targets*ld)
	old := applyAVX2
	defer func() { applyAVX2 = old }()
	for _, vec := range []bool{false, true} {
		if vec && !old {
			continue
		}
		b.Run(map[bool]string{false: "go", true: "avx2"}[vec], func(b *testing.B) {
			applyAVX2 = vec
			for i := 0; i < b.N; i++ {
				if _, err := ApplyPlan(plan, src, featDim, dst, ld); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestFillWeightsThreeMatchesLoop checks FillWeights' unrolled three-source
// row against the loop it unrolls, kept here as the oracle, bit for bit:
// distances spread over many magnitudes, ties, zeros and non-finite ones.
func TestFillWeightsThreeMatchesLoop(t *testing.T) {
	ref := func(d []float64) [3]float32 {
		const eps = 1e-10
		var w [3]float64
		total := 0.0
		for i := range w {
			w[i] = 1.0 / (d[i] + eps)
			total += w[i]
		}
		var out [3]float32
		for i := range out {
			out[i] = float32(w[i] / total)
		}
		return out
	}
	rng := rand.New(rand.NewSource(5))
	plan := &InterpPlan{}
	plan.Resize(1, 3)
	idx := []int{4, 1, 9}
	for trial := 0; trial < 50000; trial++ {
		d := make([]float64, 3)
		for i := range d {
			d[i] = math.Ldexp(rng.Float64(), rng.Intn(80)-60)
			switch rng.Intn(20) {
			case 0:
				d[i] = 0
			case 1:
				d[i] = d[0]
			case 2:
				d[i] = []float64{math.Inf(1), math.NaN(), 1e300}[rng.Intn(3)]
			}
		}
		plan.FillWeights(0, idx, d)
		want := ref(d)
		for i, w := range want {
			if got := plan.Weights[i]; math.Float32bits(got) != math.Float32bits(w) && !(got != got && w != w) {
				t.Fatalf("distances %v: weight %d is %v, want %v", d, i, got, w)
			}
			if plan.Indexes[i] != int32(idx[i]) {
				t.Fatalf("index %d is %d, want %d", i, plan.Indexes[i], idx[i])
			}
		}
	}
}
