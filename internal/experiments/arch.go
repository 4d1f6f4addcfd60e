package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/neighbor"
	"repro/internal/pipeline"
	"repro/internal/tensor"
)

func init() {
	register("sec541", "Sec. 5.4.1: tensor-core utilization and the feature merge/split transform", runSec541)
	register("sec542", "Sec. 5.4.2: sorted-index grouping data-movement study", runSec542)
}

func runSec541(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	dev := cfg.Device
	tc := edgesim.Config{Batch: 1, TensorCores: true}

	// Part 1 — the paper's profiled conv shapes: reshaping 32x1000x12x32
	// (12 input channels: tensor cores idle) into 32x100x120x32 (120
	// channels: 40% utilization) keeps the FLOPs but cuts latency.
	orig := model.StageRecord{Stage: model.StageFeature, Algo: "shared-mlp", Q: 32 * 1000 * 32, CIn: 12, COut: 64}
	resh := model.StageRecord{Stage: model.StageFeature, Algo: "shared-mlp", Q: 32 * 100 * 32, CIn: 120, COut: 64}
	rows := [][]string{{"Conv shape", "TC util", "Modelled ms", "Paper ms"}}
	rows = append(rows,
		[]string{"32x1000x12x32 * 12x64", pct(dev.TensorCoreUtilization(12)), ms(dev.StageLatency(orig, tc)), "40.4 (0% util)"},
		[]string{"32x100x120x32 * 120x64", pct(dev.TensorCoreUtilization(120)), ms(dev.StageLatency(resh, tc)), "18.3 (40% util)"},
	)

	// Part 2 — the merge/split approximation behind the reshape: merging t
	// Morton-adjacent points' features widens the channel dimension; the
	// shared conv result is split back by assignment. The approximation
	// error is small exactly because Morton neighbors are spatial
	// neighbors; on randomly ordered points the same transform is much
	// worse.
	t := 4
	mortonErr, rawErr, err := mergeSplitError(cfg, t)
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		[]string{fmt.Sprintf("merge/split t=%d, Morton order", t), "-", fmt.Sprintf("rel err %.3f", mortonErr), "-"},
		[]string{fmt.Sprintf("merge/split t=%d, raw order", t), "-", fmt.Sprintf("rel err %.3f", rawErr), "-"},
	)
	return &Result{
		ID:    "sec541",
		Title: "Sec. 5.4.1: tensor-core channel threshold and the Morton merge/split transform",
		Table: table(rows),
		Notes: "Paper shape: same FLOPs, wider channels -> tensor cores engage and latency drops " +
			"(2.2x on their hardware). The merge/split approximation that enables the reshape is " +
			"only benign on Morton-ordered points: its error on raw order is several times larger.",
	}, nil
}

// mergeSplitError measures the relative error of replacing per-point linear
// features with the shared feature of t-point groups, under Morton vs raw
// ordering.
func mergeSplitError(cfg RunConfig, t int) (mortonErr, rawErr float64, err error) {
	n := 4096
	if cfg.Quick {
		n = 512
	}
	frame := geom.GenerateScene(geom.SceneOptions{N: n, Seed: cfg.Seed + 3})
	s, err := core.Structurize(frame, core.StructurizeOptions{})
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 5))
	w := tensor.New(3, 8)
	for i := range w.Data {
		w.Data[i] = float32(rng.NormFloat64())
	}
	calc := func(pts []geom.Point3) float64 {
		m := tensor.New(len(pts)-len(pts)%t, 3)
		for i := 0; i < m.Rows; i++ {
			m.Row(i)[0] = float32(pts[i].X)
			m.Row(i)[1] = float32(pts[i].Y)
			m.Row(i)[2] = float32(pts[i].Z)
		}
		direct, err := tensor.MatMul(m, w)
		if err != nil {
			return math.NaN()
		}
		var num, den float64
		for g := 0; g < direct.Rows/t; g++ {
			// Shared group output = conv of the mean feature (what the
			// split-by-averaging yields for a linear layer).
			mean := make([]float32, direct.Cols)
			for j := 0; j < t; j++ {
				for c, v := range direct.Row(g*t + j) {
					mean[c] += v / float32(t)
				}
			}
			for j := 0; j < t; j++ {
				for c, v := range direct.Row(g*t + j) {
					d := float64(v - mean[c])
					num += float64(d * d)
					den += float64(float64(v) * float64(v))
				}
			}
		}
		return math.Sqrt(num / den)
	}
	return calc(s.Cloud.Points), calc(frame.Points), nil
}

func runSec542(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	w, err := pipeline.WorkloadByID("W1")
	if err != nil {
		return nil, err
	}
	if cfg.Quick {
		w.Points = 512
	}
	frame, err := pipeline.Frame(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	// A real neighbor-index matrix from the baseline pipeline's first SA
	// module shape: queries = N/4 FPS... brute kNN suffices here, the index
	// statistics are what matters.
	k := w.K
	nOut := frame.Len() / 4
	queries := frame.Points[:nOut]
	nbr, err := neighbor.BruteKNN{}.Search(frame.Points, queries, k)
	if err != nil {
		return nil, err
	}
	gapBefore := meanAdjacentGap(nbr, k)
	sorted := make([]int, len(nbr))
	copy(sorted, nbr)
	for q := 0; q < nOut; q++ {
		row := sorted[q*k : (q+1)*k]
		sort.Ints(row)
	}
	gapAfter := meanAdjacentGap(sorted, k)

	rec := model.StageRecord{Stage: model.StageGroup, Algo: "gather", Q: nOut, K: k, CIn: 64}
	simCfg := edgesim.Config{Batch: w.Batch}
	base := cfg.Device.StageLatency(rec, simCfg)
	opt := cfg.Device.StageLatency(rec, edgesim.Config{Batch: w.Batch, SortedGrouping: true})

	rows := [][]string{{"Metric", "Unsorted rows", "Sorted rows", "Paper"}}
	rows = append(rows,
		[]string{"mean adjacent index gap", fmt.Sprintf("%.0f", gapBefore), fmt.Sprintf("%.0f", gapAfter), "-"},
		[]string{"modelled grouping latency", ms(base), ms(opt), "-25.7% DRAM, -53.9% L2 traffic"},
	)
	return &Result{
		ID:    "sec542",
		Title: "Sec. 5.4.2: sorting each neighbor-index row improves gather locality",
		Table: table(rows),
		Notes: "Paper shape: with ascending indexes per row, threads gathering the same rows " +
			"coalesce — measured 53.9% less L2 and 25.7% less DRAM traffic; the cost model " +
			"charges the DRAM reduction. The adjacent-gap statistic shows why: sorted rows step " +
			"through memory in much smaller strides.",
	}, nil
}

// meanAdjacentGap averages |idx[j+1]-idx[j]| within each k-wide row: a proxy
// for the stride pattern the gather kernel issues.
func meanAdjacentGap(nbr []int, k int) float64 {
	if k < 2 {
		return 0
	}
	var sum float64
	count := 0
	for q := 0; q < len(nbr)/k; q++ {
		row := nbr[q*k : (q+1)*k]
		for j := 1; j < k; j++ {
			d := row[j] - row[j-1]
			if d < 0 {
				d = -d
			}
			sum += float64(d)
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}
