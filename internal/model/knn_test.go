package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/tensor"
)

// featKNNOracle is featKNN with neither lanes nor early exit: every candidate
// summed over all channels, then the insert.
func featKNNOracle(feats *tensor.Matrix, k int) []int {
	n := feats.Rows
	k = min(k, n)
	out := make([]int, n*k)
	d, idx := make([]float64, k), make([]int, k)
	for i := 0; i < n; i++ {
		fi := feats.Row(i)
		for t := range d {
			d[t], idx[t] = 1e300, -1
		}
		for j := 0; j < n; j++ {
			fj := feats.Row(j)
			var dist float64
			for t, v := range fi {
				dv := float64(v - fj[t])
				dist += dv * dv
			}
			if dist >= d[k-1] {
				continue
			}
			t := k - 1
			for t > 0 && d[t-1] > dist {
				d[t], idx[t] = d[t-1], idx[t-1]
				t--
			}
			d[t], idx[t] = dist, j
		}
		copy(out[i*k:], idx)
	}
	return out
}

// knnCase builds an n×c feature matrix of the given kind.
func knnCase(rng *rand.Rand, kind string, n, c int) *tensor.Matrix {
	m := tensor.New(n, c)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	switch kind {
	case "ties": // a few small integers: many exactly equal distances
		for i := range m.Data {
			m.Data[i] = float32(rng.Intn(3))
		}
	case "duplicates": // every third row repeats an earlier one
		for i := 3; i < n; i += 3 {
			copy(m.Row(i), m.Row(rng.Intn(i)))
		}
	case "nan":
		for i := rng.Intn(7); i < len(m.Data); i += 1 + rng.Intn(3*c+1) {
			m.Data[i] = float32(math.NaN())
		}
	case "inf": // Inf − Inf is NaN, Inf − x is Inf, and 3e38 − −3e38 overflows
		edge := []float32{float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38}
		for i := rng.Intn(7); i < len(m.Data); i += 1 + rng.Intn(2*c+1) {
			m.Data[i] = edge[rng.Intn(len(edge))]
		}
	case "tiny": // denormal differences, squares that underflow to zero
		for i := range m.Data {
			m.Data[i] *= 1e-39
		}
	}
	return m
}

// TestFeatKNNMatchesScalarOracle is featKNN's exactness contract: the lane
// scan with its early exit and the Go loop with its own, against the oracle
// that sums every candidate in full, index for index — ties to the lowest
// index, duplicate points, NaN and Inf features (which turn the early exit
// off), denormals, k ≥ n, channel counts around 8 and point counts that leave
// a ragged tail of lanes, at GOMAXPROCS 1, 2 and 4 (the query split starts at
// 2048 points).
func TestFeatKNNMatchesScalarOracle(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	vector := knnAVX2
	defer func() { knnAVX2 = vector }()
	type tc struct {
		kind    string
		n, c, k int
	}
	var cases []tc
	for _, kind := range []string{"normal", "ties", "duplicates", "nan", "inf", "tiny"} {
		for _, n := range []int{1, 5, 7, 8, 9, 17, 64, 131} {
			for _, c := range []int{1, 3, 7, 8, 9, 16, 35} {
				for _, k := range []int{1, 4, 8, n, n + 3} {
					cases = append(cases, tc{kind, n, c, k})
				}
			}
		}
	}
	cases = append(cases, tc{"normal", 2100, 16, 8}, tc{"ties", 2051, 5, 8}, tc{"nan", 2049, 9, 4})
	rng := rand.New(rand.NewSource(28))
	ws := tensor.NewWorkspace()
	for _, c := range cases {
		feats := knnCase(rng, c.kind, c.n, c.c)
		want := featKNNOracle(feats, c.k)
		procs := []int{1}
		if c.n >= 2048 {
			procs = []int{1, 2, 4}
		}
		for _, lanes := range []bool{false, vector} {
			knnAVX2 = lanes
			for _, p := range procs {
				runtime.GOMAXPROCS(p)
				for _, w := range []*tensor.Workspace{nil, ws} {
					got := featKNN(w, feats, c.k)
					if len(got) != len(want) {
						t.Fatalf("%+v: %d indexes, want %d", c, len(got), len(want))
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("%+v lanes %v GOMAXPROCS %d: query %d slot %d is %d, oracle %d",
								c, lanes, p, i/min(c.k, c.n), i%min(c.k, c.n), got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// scanModel is knnScanAVX2's contract in Go: the offset of the first block
// of 8 candidates with a lane whose full distance is not ≥ thr, and its
// distances; n when there is none.
func scanModel(q, ft []float32, n, ld int, thr float64) (int, [8]float64) {
	for b := 0; b < n; b += 8 {
		var lanes [8]float64
		survivor := false
		for l := range lanes {
			for t, v := range q {
				dv := float64(v - ft[t*ld+b+l])
				lanes[l] += dv * dv
			}
			survivor = survivor || !(lanes[l] >= thr)
		}
		if survivor {
			return b, lanes
		}
	}
	return n, [8]float64{}
}

func sameDist(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (a != a && b != b)
}

// checkScan runs knnScanAVX2 on one query and compares it with scanModel.
func checkScan(t *testing.T, what string, q, ft []float32, n, ld int, thr float64, early bool) {
	t.Helper()
	wantOff, wantLanes := scanModel(q, ft, n, ld, thr)
	var lanes [8]float64
	off := knnScanAVX2(&lanes, q, ft, n, ld, thr, early)
	if off != wantOff {
		t.Fatalf("%s: thr %v early %v: first block with a survivor at %d, want %d", what, thr, early, off, wantOff)
	}
	if off == n {
		return
	}
	for l, w := range wantLanes {
		if !sameDist(lanes[l], w) {
			t.Fatalf("%s: block %d lane %d distance %x (%g), want %x (%g)", what, off, l, math.Float64bits(lanes[l]), lanes[l], math.Float64bits(w), w)
		}
	}
}

// TestKNNScanLanesMatchGo pins the vector kernel itself: the offset it
// stops at and the eight distances it leaves, bit for bit, for thresholds
// at, below and above lane distances (a lane equal to the threshold is not a
// survivor), NaN lanes (always survivors), the early exit on and off, and
// channel counts on each side of its every-4-channels test.
func TestKNNScanLanesMatchGo(t *testing.T) {
	if !knnAVX2 {
		t.Skip("no AVX2 on this host: featKNN runs the Go loop the vector one is compared with")
	}
	rng := rand.New(rand.NewSource(29))
	for _, kind := range []string{"normal", "ties", "tiny", "nan", "inf"} {
		for _, c := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 35} {
			for _, n := range []int{8, 16, 64, 136} {
				m := knnCase(rng, kind, n+1, c)
				q, ft := m.Row(n), make([]float32, c*n)
				for j := 0; j < n; j++ {
					for tt, v := range m.Row(j) {
						ft[tt*n+j] = v
					}
				}
				finite := kind != "nan" && kind != "inf"
				_, all := scanModel(q, ft, 8, n, math.Inf(1))
				thrs := []float64{1e300, 0, math.NaN(), all[rng.Intn(8)]}
				for _, thr := range thrs {
					for _, early := range []bool{false, finite} {
						what := fmt.Sprintf("%s c=%d n=%d", kind, c, n)
						checkScan(t, what, q, ft, n, n, thr, early)
						// One block whose smallest distance is the threshold
						// has no survivor.
						lo := math.Inf(1)
						for _, d := range all {
							lo = math.Min(lo, d)
						}
						if !math.IsNaN(lo) && finite {
							checkScan(t, what+" thr=min", q, ft, 8, n, lo, early)
						}
					}
				}
			}
		}
	}
}

// BenchmarkFeatKNN is the feature-space search of a dgcnn_train EdgeConv
// module: 1024 points of 16 and 32 channels, K 8.
func BenchmarkFeatKNN(b *testing.B) {
	for _, c := range []int{16, 32} {
		b.Run(fmt.Sprint(c), func(b *testing.B) {
			feats := knnCase(rand.New(rand.NewSource(1)), "normal", 1024, c)
			ws := tensor.NewWorkspace()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				featKNN(ws, feats, 8)
			}
		})
	}
}
