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

func BenchmarkBall(b *testing.B) {
	level, centers := benchScene(8192)
	for _, r := range []float64{0.05, 0.2, 0.8} {
		b.Run(fmt.Sprintf("index/r=%v", r), func(b *testing.B) {
			var ix Index
			for i := 0; i < b.N; i++ {
				ix.Reset(level)
				_, _ = ix.Ball(centers, r, 8)
			}
		})
		b.Run(fmt.Sprintf("oracle/r=%v", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				_, _ = neighbor.BallQuery{R: r}.Search(level, centers, 8)
			}
		})
	}
}

func BenchmarkThreeNN(b *testing.B) {
	for _, n := range benchLevels {
		level, centers := benchScene(n) // FP: from the n/4 centers back onto the level
		b.Run(fmt.Sprintf("index/%d", n), func(b *testing.B) {
			var ix Index
			for i := 0; i < b.N; i++ {
				ix.Reset(centers)
				_, _ = ix.ThreeNN(level)
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
