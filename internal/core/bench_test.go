package core

import (
	"fmt"
	"testing"

	"repro/internal/geom"
	"repro/internal/neighbor"
	"repro/internal/sample"
)

// Host wall-clock comparison of the neighbor-search design space on one
// structurized frame: the EdgePC window approximation vs the exact Morton
// searcher (BigMin scan) vs brute force.

func benchStructurized(b *testing.B, n int) (*Structurized, []int) {
	b.Helper()
	cloud := geom.GenerateScene(geom.SceneOptions{N: n, Seed: 77})
	s, err := Structurize(cloud, StructurizeOptions{})
	if err != nil {
		b.Fatal(err)
	}
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	return s, pos
}

func BenchmarkSearchWindowPure(b *testing.B) {
	s, pos := benchStructurized(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (WindowSearcher{}).SearchPositions(s.Cloud.Points, pos, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchWindowW32(b *testing.B) {
	s, pos := benchStructurized(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (WindowSearcher{W: 32}).SearchPositions(s.Cloud.Points, pos, 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSearchWindow is an S+N SA0 window search at the model's shape
// (W = 2k = 16, k = 8, a query at every fourth position): fleet_burst's
// 1024-point clouds, pp_sn_stream's 8192, and a 1024-point cloud that
// stores 512 points twice, so that every window holds tied distances.
//
//	go test -run '^$' -bench SearchWindow/ -cpu 1 ./internal/core/
func BenchmarkSearchWindow(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     int
		twice bool
	}{{"1024", 1024, false}, {"8192", 8192, false}, {"1024dup", 512, true}} {
		cloud := geom.GenerateScene(geom.SceneOptions{N: c.n, Seed: 77})
		if c.twice {
			cloud.Points = append(cloud.Points, cloud.Points...)
			cloud.Labels = append(cloud.Labels, cloud.Labels...)
		}
		s, err := Structurize(cloud, StructurizeOptions{})
		if err != nil {
			b.Fatal(err)
		}
		queries := make([]int, 0, s.Len()/4)
		for p := 0; p < s.Len(); p += 4 {
			queries = append(queries, p)
		}
		b.Run("W16/"+c.name, func(b *testing.B) {
			var out []int
			for i := 0; i < b.N; i++ {
				if out, err = (WindowSearcher{W: 16}).SearchPositionsInto(out, s.Cloud.Points, queries, 8); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSearchBruteBall(b *testing.B) {
	s, pos := benchStructurized(b, 4096)
	_ = pos
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := (neighbor.BallQuery{R: 0.3}).Search(s.Cloud.Points, s.Cloud.Points, 8); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalsWindow(b *testing.B) {
	s, _ := benchStructurized(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateNormalsWindow(s, 10, 40); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNormalsExact(b *testing.B) {
	s, _ := benchStructurized(b, 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := neighbor.EstimateNormals(s.Cloud.Points, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOneShotStructurize(b *testing.B) {
	cloud := geom.GenerateScene(geom.SceneOptions{N: 8192, Seed: 5})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Structurize(cloud, StructurizeOptions{}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(cloud.Len() * 24))
}

// BenchmarkMortonInterp is the last FP module's plan under S+N at W1's size:
// 8192 targets from 2048 stride samples, into a plan kept across calls.
func BenchmarkMortonInterp(b *testing.B) {
	s, _ := benchStructurized(b, 8192)
	samplePos := SamplePositions(s.Len(), s.Len()/4)
	var plan sample.InterpPlan
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := (MortonInterp{}).PlanStructurizedInto(&plan, s.Cloud.Points, samplePos); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStructurizerInto is a model graph's per-frame structurization
// into kept buffers (the Output's permutation and labels included), at a W1
// frame's 8192 points and at a LiDAR-sized 65536.
func BenchmarkStructurizerInto(b *testing.B) {
	for _, n := range []int{8192, 65536} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			cloud := geom.GenerateScene(geom.SceneOptions{N: n, Seed: 5})
			cloud.Labels = make([]int32, cloud.Len())
			var s Structurizer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				perm, labels := make([]int, cloud.Len()), make([]int32, cloud.Len())
				if _, _, err := s.Into(cloud, StructurizeOptions{}, perm, labels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
