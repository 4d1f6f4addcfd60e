package spatial

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/sample"
)

// The three exact sites at the shapes W1's levels give them, index against
// oracle, each index run paying for its own build:
//
//	go test -run '^$' -bench . -benchtime 20x ./internal/spatial/

var benchLevels = []int{8192, 2048, 512, 128}

func benchScene(n int) (level, centers []geom.Point3) {
	level = geom.GenerateScene(geom.SceneOptions{N: n, Seed: 1}).Points
	sel, _ := sample.FPSIndexes(level, n/4, 0)
	centers = make([]geom.Point3, len(sel))
	for i, s := range sel {
		centers[i] = level[s]
	}
	return level, centers
}

func BenchmarkFPS(b *testing.B) {
	for _, n := range benchLevels {
		level, _ := benchScene(n)
		b.Run(fmt.Sprintf("index/%d", n), func(b *testing.B) {
			var ix Index
			var sel []int
			for i := 0; i < b.N; i++ {
				ix.Reset(level)
				sel, _ = ix.FPS(n/4, sel)
			}
		})
		b.Run(fmt.Sprintf("oracle/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = sample.FPSIndexes(level, n/4, 0)
			}
		})
	}
}

// BenchmarkSampleAndSearch is an SA module's two exact sites at W1's shapes
// (8192 → 2048 and 2048 → 512 picks, k = 8): SampleSearch, which searches
// each pick while FPS makes the next, against FPS and then KNN over the
// picks.
//
//	go test -run '^$' -bench SampleAndSearch -cpu 1,2 ./internal/spatial/
func BenchmarkSampleAndSearch(b *testing.B) {
	for _, n := range []int{8192, 2048} {
		level, _ := benchScene(n)
		b.Run(fmt.Sprintf("stream/%d", n), func(b *testing.B) {
			var ix Index
			var sel []int
			for i := 0; i < b.N; i++ {
				ix.Reset(level)
				sel, _, _, _ = ix.SampleSearch(sample.ArchFPS, 0, n/4, 8, sel, nil)
			}
		})
		b.Run(fmt.Sprintf("sequence/%d", n), func(b *testing.B) {
			var ix Index
			var sel []int
			centers := make([]geom.Point3, n/4)
			for i := 0; i < b.N; i++ {
				ix.Reset(level)
				sel, _ = ix.FPS(n/4, sel)
				for j, s := range sel {
					centers[j] = level[s]
				}
				_, _ = ix.KNN(centers, 8)
			}
		})
	}
}

func BenchmarkKNN(b *testing.B) {
	for _, n := range benchLevels {
		level, centers := benchScene(n)
		b.Run(fmt.Sprintf("index/%d", n), func(b *testing.B) {
			var ix Index
			for i := 0; i < b.N; i++ {
				ix.Reset(level)
				_, _ = ix.KNN(centers, 8)
			}
		})
		b.Run(fmt.Sprintf("oracle/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = neighbor.BruteKNN{}.Search(level, centers, 8)
			}
		})
	}
}

func BenchmarkThreeNN(b *testing.B) {
	for _, n := range benchLevels {
		level, centers := benchScene(n) // FP: from the n/4 centers back onto the level
		b.Run(fmt.Sprintf("index/%d", n), func(b *testing.B) {
			var ix Index
			var plan sample.InterpPlan
			for i := 0; i < b.N; i++ {
				ix.Reset(centers)
				_ = ix.ThreeNNInto(&plan, level)
			}
		})
		b.Run(fmt.Sprintf("oracle/%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = sample.ThreeNN{}.Plan(level, centers)
			}
		})
	}
}

// BenchmarkFPSOrder is the order dependence of the pruning kernel, on one
// 8192-point W1 level: the same BucketFPS at quality 1 over the level as the
// model holds it (raw, or the FPS picks of a larger level), over a
// Morton-sorted copy, and through the index (sort included).
func BenchmarkFPSOrder(b *testing.B) {
	raw, _ := benchScene(8192)
	big := geom.GenerateScene(geom.SceneOptions{N: 4 * 8192, Seed: 1}).Points
	sel, _ := sample.FPSIndexes(big, 8192, 0)
	picks := make([]geom.Point3, len(sel))
	for i, s := range sel {
		picks[i] = big[s]
	}
	var ix Index
	ix.Reset(raw)
	ix.build()
	sorted := cellOrder(&ix)
	rng := rand.New(rand.NewSource(1))
	shuffled := append([]geom.Point3(nil), raw...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	for _, c := range []struct {
		name string
		pts  []geom.Point3
	}{{"raw", raw}, {"fps-picks", picks}, {"shuffled", shuffled}, {"sorted", sorted}} {
		b.Run("bucketfps@1/"+c.name, func(b *testing.B) {
			s := sample.BucketFPS{Frac: 1}
			var out []int
			for i := 0; i < b.N; i++ {
				out, _ = s.SampleInto(c.pts, 2048, out)
			}
		})
	}
}

// BenchmarkScanBelow times an SA module's exact sites on one small level at
// W1's sizes — SampleSearch (FPS of N/4 picks, each with its k = 8 list)
// and the 3-NN from 4N targets — with the level in cell (Morton) order, as
// S+N holds it, and in scene order, once through the scan and once through
// the grid, the cut-off forced either way: scanBelow is where the grid
// starts to win.
//
//	go test -run '^$' -bench ScanBelow -cpu 1 ./internal/spatial/
func BenchmarkScanBelow(b *testing.B) {
	for _, n := range []int{64, 128, 256, 512, 1024} {
		raw, _ := benchScene(n)
		old := SetScanBelow(0)
		var ix Index
		ix.Reset(raw)
		ix.build()
		sorted := cellOrder(&ix)
		SetScanBelow(old)
		targets := geom.GenerateScene(geom.SceneOptions{N: 4 * n, Seed: 2}).Points
		for _, order := range []struct {
			name  string
			level []geom.Point3
		}{{"sorted", sorted}, {"raw", raw}} {
			for _, form := range []struct {
				name string
				cut  int
			}{{"scan", 1 << 30}, {"grid", 0}} {
				b.Run(fmt.Sprintf("%s/%s/%d", order.name, form.name, n), func(b *testing.B) {
					defer SetScanBelow(SetScanBelow(form.cut))
					var ix Index
					var sel, nbr []int
					var plan sample.InterpPlan
					for i := 0; i < b.N; i++ {
						ix.Reset(order.level)
						sel, nbr, _, _ = ix.SampleSearch(sample.ArchFPS, 0, n/4, 8, sel, nbr)
						_ = ix.ThreeNNInto(&plan, targets)
					}
				})
			}
		}
	}
}
