package neighbor

import (
	"testing"

	"repro/internal/geom"
)

func benchCloud(n int) []geom.Point3 {
	return geom.GenerateShape(geom.ShapeBlob, geom.ShapeOptions{N: n, DensitySkew: 0.5, Seed: 9}).Points
}

func benchSearcher(b *testing.B, s Searcher, n, k int) {
	pts := benchCloud(n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Search(pts, pts, k); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBruteKNN2048(b *testing.B)  { benchSearcher(b, BruteKNN{}, 2048, 8) }
func BenchmarkBallQuery2048(b *testing.B) { benchSearcher(b, BallQuery{R: 0.2}, 2048, 8) }
