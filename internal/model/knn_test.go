package model

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/morton"
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
	case "local": // a smooth function of Morton-ordered points plus noise: a real level's locality
		pts := make([][3]float64, n)
		codes := make([]uint64, n)
		for i := range pts {
			for a := range pts[i] {
				pts[i][a] = rng.Float64()
			}
			codes[i] = morton.Encode3(uint32(pts[i][0]*1023), uint32(pts[i][1]*1023), uint32(pts[i][2]*1023))
		}
		w := make([][4]float64, c) // a direction and a phase per channel
		for t := range w {
			for a := range w[t] {
				w[t][a] = 4 * rng.NormFloat64()
			}
		}
		for i, src := range morton.Order(codes) {
			p := pts[src]
			for t, wt := range w {
				m.Data[i*c+t] = float32(math.Sin(wt[0]*p[0]+wt[1]*p[1]+wt[2]*p[2]+wt[3]) + 0.05*rng.NormFloat64())
			}
		}
	}
	return m
}

// TestFeatKNNMatchesScalarOracle is featKNN's exactness contract: the lane
// scan with its early exit and the Go loop with its own, against the oracle
// that sums every candidate in full, index for index — ties to the lowest
// index, duplicate points, NaN and Inf features (which turn the early exit
// off), denormals, k ≥ n, channel counts around 8 and point counts that leave
// a ragged tail of lanes, at GOMAXPROCS 1, 2 and 4 for its largest cases
// (where a query split started before the fan-out was sized by work;
// TestFeatKNNScheduleIndependent sweeps core counts at W3's size).
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

// TestFeatKNNScheduleIndependent pins the symmetric join's schedule: which
// worker runs which tile, and in which order the pairs reach a list, must
// not show in a pick. Every knnCase kind at W3's level size, on coordinates
// (3 channels) and layer-2 features (16), and at a size that is a multiple
// of neither the row block nor a lane block, against the oracle at
// GOMAXPROCS 1, 2, 3, 4 and 8.
func TestFeatKNNScheduleIndependent(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(32))
	ws := tensor.NewWorkspace()
	for _, kind := range []string{"normal", "ties", "duplicates", "nan", "inf", "tiny", "local"} {
		for _, s := range []struct{ n, c int }{{1024, 3}, {1024, 16}, {1029, 16}} {
			feats := knnCase(rng, kind, s.n, s.c)
			want := featKNNOracle(feats, 8)
			for _, p := range []int{1, 2, 3, 4, 8} {
				runtime.GOMAXPROCS(p)
				ws.Reset()
				got := featKNN(ws, feats, 8)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d c=%d GOMAXPROCS %d: query %d slot %d is %d, oracle %d",
							kind, s.n, s.c, p, i/8, i%8, got[i], want[i])
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

// symModel is knnSymAVX2's contract in Go: the offset of the first block of
// 8 candidates with a lane whose full distance is not > max(qthr, its
// thr), those lanes as mask bits, and the block's distances; n and 0 when
// there is none.
func symModel(q, ft []float32, thr []float64, ld int, qthr float64) (int, int, [8]float64) {
	n := len(thr)
	for b := 0; b < n; b += 8 {
		var lanes [8]float64
		mask := 0
		for l := range lanes {
			for t, v := range q {
				dv := float64(v - ft[t*ld+b+l])
				lanes[l] += dv * dv
			}
			if !(lanes[l] > max(qthr, thr[b+l])) {
				mask |= 1 << l
			}
		}
		if mask != 0 {
			return b, mask, lanes
		}
	}
	return n, 0, [8]float64{}
}

// checkSym runs knnSymAVX2 on one query and compares it with symModel.
func checkSym(t *testing.T, what string, q, ft []float32, thr []float64, ld int, qthr float64) {
	t.Helper()
	wantOff, wantMask, wantLanes := symModel(q, ft, thr, ld, qthr)
	var lanes [8]float64
	off, mask := knnSymAVX2(&lanes, q, ft, thr, ld, qthr)
	if off != wantOff || mask != wantMask {
		t.Fatalf("%s: qthr %v: first block with a survivor at %d mask %08b, want %d mask %08b", what, qthr, off, mask, wantOff, wantMask)
	}
	if off == len(thr) {
		return
	}
	for l, w := range wantLanes {
		if !sameDist(lanes[l], w) {
			t.Fatalf("%s: block %d lane %d distance %x (%g), want %x (%g)", what, off, l, math.Float64bits(lanes[l]), lanes[l], math.Float64bits(w), w)
		}
	}
}

// TestKNNSymLanesMatchGo pins the join's kernel: the block it stops at, its
// survivor mask and its eight distances, bit for bit, on finite features
// (the only ones it gets), with per-lane bounds that are the query's, the
// candidate's, equal to a lane's distance (a survivor: the insert breaks
// that tie by index), just below it, −Inf (the padding) and past every
// distance, at channel counts on each side of the every-4-channels exit.
func TestKNNSymLanesMatchGo(t *testing.T) {
	if !knnAVX2 {
		t.Skip("no AVX2 on this host: featKNN runs the Go loop the vector one is compared with")
	}
	rng := rand.New(rand.NewSource(33))
	for _, kind := range []string{"normal", "ties", "tiny", "local"} {
		for _, c := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 35} {
			for _, n := range []int{8, 16, 64, 136} {
				m := knnCase(rng, kind, n+1, c)
				q, ft := m.Row(n), make([]float32, c*n)
				for j := 0; j < n; j++ {
					for tt, v := range m.Row(j) {
						ft[tt*n+j] = v
					}
				}
				_, _, all := symModel(q, ft, make([]float64, n), n, math.Inf(1))
				what := fmt.Sprintf("%s c=%d n=%d", kind, c, n)
				thr := make([]float64, n)
				for trial := 0; trial < 8; trial++ {
					for j := range thr {
						switch rng.Intn(5) {
						case 0:
							thr[j] = math.Inf(-1)
						case 1:
							thr[j] = all[rng.Intn(8)]
						case 2:
							thr[j] = math.Nextafter(all[rng.Intn(8)], 0)
						default:
							thr[j] = 0
						}
					}
					for _, qthr := range []float64{math.Inf(-1), 0, all[rng.Intn(8)], math.Nextafter(all[rng.Intn(8)], 0), 1e300} {
						checkSym(t, what, q, ft, thr, n, qthr)
					}
				}
			}
		}
	}
}

// BenchmarkFeatKNN is the feature-space search of a dgcnn_train EdgeConv
// module: 1024 points of 16 and 32 channels, K 8. The rows of /16 and /32
// are i.i.d. normal, with no locality for the join's diagonal tiles to
// exploit; /local is 16 channels of the "local" kind, Morton-ordered as a
// real level is. The workspace is Reset every search, as a frame does.
func BenchmarkFeatKNN(b *testing.B) {
	for _, s := range []struct {
		name, kind string
		c          int
	}{{"16", "normal", 16}, {"32", "normal", 32}, {"local", "local", 16}} {
		b.Run(s.name, func(b *testing.B) {
			feats := knnCase(rand.New(rand.NewSource(1)), s.kind, 1024, s.c)
			ws := tensor.NewWorkspace()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ws.Reset()
				featKNN(ws, feats, 8)
			}
		})
	}
}
