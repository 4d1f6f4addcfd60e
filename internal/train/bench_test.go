package train

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/pipeline"
)

// BenchmarkTrainStep is one training step of W3 DGCNN under S+N at the
// benchmark's dgcnn_train shapes — 1024 points, width 16, four EdgeConv
// modules, K 8: train-mode forward, cross-entropy, backward and an Adam step,
// cycling over four clouds. It is the per-step cost train.Run pays;
// scripts/ci.sh gates its allocs/op at -cpu 1.
func BenchmarkTrainStep(b *testing.B) {
	w, err := pipeline.WorkloadByID("W3")
	if err != nil {
		b.Fatal(err)
	}
	net, err := pipeline.Build(w, pipeline.SN, pipeline.Options{Seed: 1, BaseWidth: 16, Modules: 4})
	if err != nil {
		b.Fatal(err)
	}
	ds := dataset.NewClassification(4, 1000)
	ds.Points = w.Points
	samples := make([]*dataset.Sample, ds.Len())
	for i := range samples {
		if samples[i], err = ds.At(i); err != nil {
			b.Fatal(err)
		}
	}
	params := net.Params()
	opt := nn.NewAdam(1e-3)
	trainStep := func(i int) {
		if _, err := step(net, samples[i%len(samples)]); err != nil {
			b.Fatal(err)
		}
		opt.Step(params)
		nn.ZeroGrads(params)
	}
	// Two steps first: the first allocates the optimizer's moments and fills
	// the net's training arena, the second's Reset grows the arena's free
	// lists to hold a whole step, and -benchtime 1x then counts a steady step.
	trainStep(len(samples) - 2)
	trainStep(len(samples) - 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trainStep(i)
	}
}
