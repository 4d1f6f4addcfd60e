package spatial

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/sample"
)

// TestSampleSearchIndependentOfSchedule holds SampleSearch to the two calls
// it overlaps — the sampler, then KNN over the picked points — at
// every worker count: the searchers race the sampler, and under -race this
// is the check that they read only published picks and the frozen index.
// The level with a NaN takes the scan path.
func TestSampleSearchIndependentOfSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type level struct {
		name string
		pts  []geom.Point3
	}
	var levels []level
	for _, n := range []int{64, 511, 512, 1029, 8192} {
		levels = append(levels, level{fmt.Sprint(n), clouds[0].gen(n, rng)})
	}
	nan := clouds[0].gen(1029, rng)
	nan[600].Y = math.NaN()
	levels = append(levels, level{"1029+NaN", nan})

	samplers := []struct {
		arch    sample.Arch
		quality float64
	}{{sample.ArchFPS, 0}, {sample.ArchBucketFPS, 0.5}, {sample.ArchStride, 0}}
	searches := []int{1, 8, 16}

	var ix Index
	for _, lv := range levels {
		n := (len(lv.pts) + 3) / 4
		for _, sm := range samplers {
			// The reference: the calls in sequence, on one worker.
			old := runtime.GOMAXPROCS(1)
			ix.Reset(lv.pts)
			var want []int
			var err error
			switch sm.arch {
			case sample.ArchFPS:
				want, err = ix.FPS(n, nil)
			case sample.ArchBucketFPS:
				want, err = ix.ApproxFPS(sm.quality, n, nil)
			default:
				want = sample.UniformIndexes(len(lv.pts), n)
			}
			if err != nil {
				t.Fatal(err)
			}
			centers := make([]geom.Point3, n)
			for i, p := range want {
				centers[i] = lv.pts[p]
			}
			wantNbr := make([][]int, len(searches))
			for j, k := range searches {
				wantNbr[j], err = ix.KNN(centers, k)
				if err != nil {
					t.Fatal(err)
				}
			}
			runtime.GOMAXPROCS(old)

			var picks, nbr []int // reused across calls, as the model's planner does
			for _, procs := range []int{1, 2, 3, 4, 8} {
				old := runtime.GOMAXPROCS(procs)
				for j, k := range searches {
					ix.Reset(lv.pts)
					picks, nbr, _, err = ix.SampleSearch(sm.arch, sm.quality, n, k, picks, nbr)
					if err != nil || !reflect.DeepEqual(picks, want) || !reflect.DeepEqual(nbr, wantNbr[j]) {
						runtime.GOMAXPROCS(old)
						t.Fatalf("%s %v@%v k=%d GOMAXPROCS=%d: err %v, first pick difference %d, first list difference %d",
							lv.name, sm.arch, sm.quality, k, procs, err, firstDiff(picks, want), firstDiff(nbr, wantNbr[j]))
					}
				}
				runtime.GOMAXPROCS(old)
			}
		}
	}
}

// TestSampleSearchEdges: k = 0 samples only, and a bad request
// reports the error the sequential calls report, and leaves the index ready
// for the next call.
func TestSampleSearchEdges(t *testing.T) {
	old := runtime.GOMAXPROCS(4)
	defer runtime.GOMAXPROCS(old)
	rng := rand.New(rand.NewSource(31))
	pts := clouds[0].gen(4096, rng)
	var ix Index
	ix.Reset(pts)
	want, _ := ix.FPS(1024, nil)
	picks, nbr, sampled, err := ix.SampleSearch(sample.ArchFPS, 0, 1024, 0, nil, nil)
	if err != nil || nbr != nil || sampled <= 0 || !reflect.DeepEqual(picks, want) {
		t.Fatalf("sample only: err %v, nbr %v, sampled %v, first pick difference %d", err, nbr != nil, sampled, firstDiff(picks, want))
	}
	if _, _, _, err := ix.SampleSearch(sample.ArchFPS, 0, 4097, 8, nil, nil); err == nil {
		t.Fatal("more picks than points: want error")
	}
	if _, _, _, err := ix.SampleSearch(sample.ArchFPS, 0, 8, -1, nil, nil); err == nil {
		t.Fatal("k=-1: want error")
	}
	var empty Index
	if _, _, _, err := empty.SampleSearch(sample.ArchFPS, 0, 1, 1, nil, nil); err == nil {
		t.Fatal("unbound index: want error")
	}
	wantNbr, _ := ix.KNN(centersOf(pts, want), 8)
	picks, nbr, _, err = ix.SampleSearch(sample.ArchFPS, 0, 1024, 8, picks, nil)
	if err != nil || !reflect.DeepEqual(picks, want) || !reflect.DeepEqual(nbr, wantNbr) {
		t.Fatalf("after the errors: err %v, first pick difference %d, first list difference %d", err, firstDiff(picks, want), firstDiff(nbr, wantNbr))
	}
}

func centersOf(pts []geom.Point3, sel []int) []geom.Point3 {
	out := make([]geom.Point3, len(sel))
	for i, s := range sel {
		out[i] = pts[s]
	}
	return out
}

// TestScratchFillsWholeLines: the workers' scratch slots sit back to back in
// one array and are written on every query, so a slot that is not a whole
// number of cache lines shares one with its neighbor.
func TestScratchFillsWholeLines(t *testing.T) {
	if size := unsafe.Sizeof(scratch{}); size%64 != 0 {
		t.Fatalf("scratch is %d bytes, not a multiple of 64", size)
	}
}
