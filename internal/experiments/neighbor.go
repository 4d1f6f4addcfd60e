package experiments

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/core"
	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
	"repro/internal/neighbor"
	"repro/internal/pipeline"
	"repro/internal/sample"
)

func init() {
	register("fig6", "Fig. 6: false neighbor ratio of pure index selection", runFig6)
	register("fig11", "Fig. 11: per-module NS speedup vs false neighbor ratio", runFig11)
	register("fig15a", "Fig. 15a: FNR and NS speedup vs search window size", runFig15a)
	register("ablation-bits", "Ablation: Morton code width vs FNR and memory", runAblationBits)
}

// ballRadiusFor estimates a ball-query radius that captures ≈k neighbors: the
// median k-th nearest-neighbor distance over a query sample.
func ballRadiusFor(pts []geom.Point3, k int) (float64, error) {
	step := len(pts) / 64
	if step < 1 {
		step = 1
	}
	var queries []geom.Point3
	for i := 0; i < len(pts); i += step {
		queries = append(queries, pts[i])
	}
	nbr, err := neighbor.BruteKNN{}.Search(pts, queries, k)
	if err != nil {
		return 0, err
	}
	kth := make([]float64, 0, len(queries))
	for q := range queries {
		worst := 0.0
		for j := 0; j < k; j++ {
			if d := queries[q].DistSq(pts[nbr[q*k+j]]); d > worst {
				worst = d
			}
		}
		kth = append(kth, worst)
	}
	sort.Float64s(kth)
	med := kth[len(kth)/2]
	if med <= 0 {
		med = 1e-6
	}
	return math.Sqrt(med), nil
}

// windowFNR computes the FNR of the Morton index-window searcher against an
// exact reference over all points of a cloud. For W > k the window searcher
// excludes the query itself (Fig. 10b semantics), so the exact reference
// must exclude it too or every query would carry a built-in 1/k error.
func windowFNR(cloud *geom.Cloud, exact neighbor.Searcher, k, w, bits int) (float64, error) {
	s, err := core.Structurize(cloud, core.StructurizeOptions{TotalBits: bits})
	if err != nil {
		return 0, err
	}
	pos := make([]int, s.Len())
	for i := range pos {
		pos[i] = i
	}
	approx, err := core.WindowSearcher{W: w}.SearchPositions(s.Cloud.Points, pos, k)
	if err != nil {
		return 0, err
	}
	var ref []int
	if w > k {
		ref, err = neighbor.KNNExcludingSelf(s.Cloud.Points, pos, k)
	} else {
		ref, err = exact.Search(s.Cloud.Points, s.Cloud.Points, k)
	}
	if err != nil {
		return 0, err
	}
	return neighbor.FalseNeighborRatio(approx, ref, k)
}

func runFig6(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	rows := [][]string{{"Config", "k", "FNR (index pick)"}}
	minFNR := 1.0
	for _, wl := range pipeline.Workloads {
		w := wl
		if cfg.Quick {
			w.Points = 512
		}
		frame, err := pipeline.Frame(w, cfg.Seed)
		if err != nil {
			return nil, err
		}
		k := w.K
		r, err := ballRadiusFor(frame.Points, k)
		if err != nil {
			return nil, err
		}
		for _, searcher := range []neighbor.Searcher{neighbor.BruteKNN{}, neighbor.BallQuery{R: r}} {
			fnr, err := windowFNR(frame, searcher, k, k, 0)
			if err != nil {
				return nil, err
			}
			if fnr < minFNR {
				minFNR = fnr
			}
			rows = append(rows, []string{
				fmt.Sprintf("%s/%s vs %s", w.ID, w.Dataset, searcher.Name()),
				fmt.Sprintf("%d", k), pct(fnr),
			})
		}
	}
	return &Result{
		ID:    "fig6",
		Title: "Fig. 6: false neighbor ratio of pure index selection (W = k) per dataset × searcher",
		Table: table(rows),
		Notes: fmt.Sprintf("Paper shape: pure index selection has substantial but workable FNR, "+
			"as low as 23%% in the best configuration (this run's best: %s). Widening the window "+
			"drives it toward 5%% (Fig. 15a).", pct(minFNR)),
	}, nil
}

func runFig11(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	w, err := pipeline.WorkloadByID("W2")
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
	k := w.K
	window := 2 * k
	simCfg := edgesim.Config{Batch: w.Batch}

	rows := [][]string{{"Module", "N", "Q", "FNR", "Baseline NS ms", "EdgePC NS ms", "Speedup"}}
	pts := frame.Points
	for layer := 0; layer < 4; layer++ {
		nOut := len(pts) / 4
		if nOut < k {
			nOut = k
		}
		sel, err := sample.FPSIndexes(pts, nOut, 0)
		if err != nil {
			return nil, err
		}
		queries := make([]geom.Point3, nOut)
		for i, s := range sel {
			queries[i] = pts[s]
		}
		// FNR of the window searcher at this level.
		lvCloud := &geom.Cloud{Points: pts}
		s, err := core.Structurize(lvCloud, core.StructurizeOptions{})
		if err != nil {
			return nil, err
		}
		inv := make([]int, len(pts))
		for p, orig := range s.Perm {
			inv[orig] = p
		}
		qpos := make([]int, nOut)
		for i, idx := range sel {
			qpos[i] = inv[idx]
		}
		approx, err := core.WindowSearcher{W: window}.SearchPositions(s.Cloud.Points, qpos, k)
		if err != nil {
			return nil, err
		}
		exact, err := neighbor.KNNExcludingSelf(s.Cloud.Points, qpos, k)
		if err != nil {
			return nil, err
		}
		fnr, err := neighbor.FalseNeighborRatio(approx, exact, k)
		if err != nil {
			return nil, err
		}
		// Modelled latencies. Layer 0 reuses the sampler's Morton codes; the
		// deeper layers must re-structurize their level first (§5.2.3).
		baseLat := cfg.Device.StageLatency(model.StageRecord{
			Stage: model.StageNeighbor, Algo: "ball-query", N: len(pts), Q: nOut, K: k,
		}, simCfg)
		edgeLat := cfg.Device.StageLatency(model.StageRecord{
			Stage: model.StageNeighbor, Algo: "morton-window", N: len(pts), Q: nOut, K: k, W: window,
		}, simCfg)
		if layer > 0 {
			edgeLat += cfg.Device.StageLatency(model.StageRecord{
				Stage: model.StageStructurize, Algo: "morton", N: len(pts),
			}, simCfg)
		}
		rows = append(rows, []string{
			fmt.Sprintf("SA%d", layer+1),
			fmt.Sprintf("%d", len(pts)), fmt.Sprintf("%d", nOut),
			pct(fnr), ms(baseLat), ms(edgeLat), ratio(baseLat, edgeLat),
		})
		// Descend to the next level (baseline FPS order, as in the paper's
		// setting where only layer 1 is Morton-optimized).
		pts = queries
	}
	return &Result{
		ID:    "fig11",
		Title: "Fig. 11: window searcher speedup vs FNR across the 4 PointNet++ modules",
		Table: table(rows),
		Notes: "Paper shape: module 1 combines the largest speedup with the lowest FNR (it reuses " +
			"the sampler's Morton codes for free and searches the densest level); deeper modules " +
			"gain less and err more, so EdgePC optimizes only the first.",
	}, nil
}

func runFig15a(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	w, err := pipeline.WorkloadByID("W2")
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
	k := w.K
	simCfg := edgesim.Config{Batch: w.Batch}
	baseLat := cfg.Device.StageLatency(model.StageRecord{
		Stage: model.StageNeighbor, Algo: "knn-brute", N: frame.Len(), Q: frame.Len(), K: k,
	}, simCfg)

	rows := [][]string{{"Window", "FNR", "NS latency ms", "NS speedup"}}
	for _, mult := range []int{1, 2, 4, 8, 16, 32} {
		wdw := mult * k
		if wdw > frame.Len() {
			break
		}
		fnr, err := windowFNR(frame, neighbor.BruteKNN{}, k, wdw, 0)
		if err != nil {
			return nil, err
		}
		lat := cfg.Device.StageLatency(model.StageRecord{
			Stage: model.StageNeighbor, Algo: "morton-window", N: frame.Len(), Q: frame.Len(), K: k, W: wdw,
		}, simCfg)
		rows = append(rows, []string{
			fmt.Sprintf("%dk", mult), pct(fnr), ms(lat), ratio(baseLat, lat),
		})
	}
	return &Result{
		ID:    "fig15a",
		Title: "Fig. 15a: search window size vs false neighbor ratio vs NS speedup",
		Table: table(rows),
		Notes: "Paper shape: FNR falls monotonically with the window (toward ~5%) while the " +
			"speedup over the O(N^2) baseline shrinks — the accuracy/latency dial of §5.2.3.",
	}, nil
}

func runAblationBits(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	w, err := pipeline.WorkloadByID("W2")
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
	k := w.K
	rows := [][]string{{"Total bits a", "Bits/axis", "FNR (W=2k)", "Code bytes/frame"}}
	for _, bits := range []int{12, 18, 24, 30, 33, 45, 63} {
		fnr, err := windowFNR(frame, neighbor.BruteKNN{}, k, 2*k, bits)
		if err != nil {
			return nil, err
		}
		rows = append(rows, []string{
			fmt.Sprintf("%d", bits), fmt.Sprintf("%d", bits/3),
			pct(fnr), fmt.Sprintf("%d", frame.Len()*((bits+7)/8)),
		})
	}
	return &Result{
		ID:    "ablation-bits",
		Title: "Ablation: Morton code width a vs false neighbor ratio vs memory (the paper's a = 32 pick)",
		Table: table(rows),
		Notes: "Paper shape (§6.1.3): FNR improves as a grows toward 32 bits and flattens beyond, " +
			"while code storage grows linearly — a = 32 balances the two.",
	}, nil
}
