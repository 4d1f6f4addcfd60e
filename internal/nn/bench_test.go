package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// w1FeatureShapes are the StageFeature records of a W1 frame (PointNet++,
// 8192 points, width 16, depth 4): four set-abstraction MLPs over grouped
// rows, max-pooled in groups of k, and four feature-propagation MLPs.
var w1FeatureShapes = []struct {
	name string
	rows int
	dims []int
	k    int
}{
	{"sa0", 16384, []int{6, 16, 16}, 8},
	{"sa1", 4096, []int{19, 32, 32}, 8},
	{"sa2", 1024, []int{35, 64, 64}, 8},
	{"sa3", 256, []int{67, 128, 128}, 8},
	{"fp0", 128, []int{192, 64}, 0},
	{"fp1", 512, []int{96, 32}, 0},
	{"fp2", 2048, []int{48, 16}, 0},
	{"fp3", 8192, []int{19, 16}, 0},
}

// BenchmarkSharedMLPEval times the eval-mode shared MLP, workspace attached,
// at the eight shapes whose sum is a W1 frame's model.stage.feature_ms. Run with -cpu 1,2: the fan-out is sized by work,
// so the small layers show whether it pays. GFLOP/s counts the GEMMs alone
// (2·rows·in·out a layer) over the whole block's time, epilogue included.
func BenchmarkSharedMLPEval(b *testing.B) {
	for _, s := range w1FeatureShapes {
		b.Run(fmt.Sprintf("%s_%dx%v", s.name, s.rows, s.dims), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			mlp := NewSharedMLP(s.name, s.dims, rng)
			ws := tensor.NewWorkspace()
			mlp.SetWorkspace(ws)
			x := randInput(rng, s.rows, s.dims[0])
			run := func() {
				ws.Reset()
				var err error
				if s.k > 0 {
					_, err = mlp.ForwardPooled(x, s.k)
				} else {
					_, err = mlp.Forward(x, false)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
			run() // warm the workspace
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
			flop := 0
			for i := 1; i < len(s.dims); i++ {
				flop += 2 * s.rows * s.dims[i-1] * s.dims[i]
			}
			b.ReportMetric(float64(flop)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}
