package experiments

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
)

func init() {
	register("validate", "Extension: cost model vs host wall-clock rank correlation", runValidate)
}

// runValidate cross-checks the substitution at the heart of this
// reproduction: if the edgesim cost model orders pipeline stages the same
// way real execution does, conclusions drawn from modelled latency shapes
// transfer. For every stage record of baseline and S+N runs we pair the
// modelled latency with the measured Go wall time and report Spearman rank
// correlation (host CPU ≠ edge GPU, so *rank* agreement — which stages
// dominate — is the meaningful criterion, not absolute or linear fit).
// latPair is one (modelled, measured) stage-latency observation.
type latPair struct {
	modelled, measured float64
}

func runValidate(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	var pairs []latPair
	rows := [][]string{{"Workload/config", "Stages", "Spearman rho"}}
	for _, id := range []string{"W2", "W5"} {
		w, err := pipeline.WorkloadByID(id)
		if err != nil {
			return nil, err
		}
		w, opts := workloadScale(w, cfg)
		if !cfg.Quick {
			// Moderate scale: large enough for stable timings, small
			// enough to run in seconds.
			w.Points = 2048
		}
		for _, kind := range []pipeline.ConfigKind{pipeline.Baseline, pipeline.SN} {
			net, err := pipeline.Build(w, kind, opts)
			if err != nil {
				return nil, err
			}
			frame, err := pipeline.Frame(w, cfg.Seed)
			if err != nil {
				return nil, err
			}
			trace := &model.Trace{}
			if _, err := net.Forward(frame, trace, false); err != nil {
				return nil, err
			}
			rep := cfg.Device.PriceTrace(trace, pipeline.SimConfig(w, kind, opts))
			var local []latPair
			for i, r := range trace.Records {
				if r.Dur < 10*time.Microsecond {
					continue // below timer resolution noise floor
				}
				local = append(local, latPair{
					modelled: rep.Records[i].Latency.Seconds(),
					measured: r.Dur.Seconds(),
				})
			}
			rho := spearman(local)
			pairs = append(pairs, local...)
			rows = append(rows, []string{
				fmt.Sprintf("%s/%s", w.ID, kind), fmt.Sprintf("%d", len(local)), fmt.Sprintf("%.3f", rho),
			})
		}
	}
	rows = append(rows, []string{"pooled", fmt.Sprintf("%d", len(pairs)), fmt.Sprintf("%.3f", spearman(pairs))})
	return &Result{
		ID:    "validate",
		Title: "Extension: does the device model rank stages like real execution?",
		Table: table(rows),
		Notes: "Spearman rho near 1 means the cost model and the host agree on which stages " +
			"dominate — the property the latency-shape claims rest on. Absolute times differ by " +
			"design (the model prices a Jetson GPU; measurement is a host CPU).",
	}, nil
}

// spearman computes the Spearman rank correlation of the pairs.
func spearman(pairs []latPair) float64 {
	n := len(pairs)
	if n < 3 {
		return 0
	}
	rankOf := func(key func(int) float64) []float64 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(a, b int) bool { return key(idx[a]) < key(idx[b]) })
		ranks := make([]float64, n)
		for r, i := range idx {
			ranks[i] = float64(r)
		}
		return ranks
	}
	ra := rankOf(func(i int) float64 { return pairs[i].modelled })
	rb := rankOf(func(i int) float64 { return pairs[i].measured })
	var meanA, meanB float64
	for i := 0; i < n; i++ {
		meanA += ra[i]
		meanB += rb[i]
	}
	meanA /= float64(n)
	meanB /= float64(n)
	var cov, varA, varB float64
	for i := 0; i < n; i++ {
		da, db := ra[i]-meanA, rb[i]-meanB
		cov += float64(da * db)
		varA += float64(da * da)
		varB += float64(db * db)
	}
	if varA == 0 || varB == 0 {
		return 0
	}
	return cov / math.Sqrt(varA*varB)
}
