package experiments

import (
	"fmt"
	"time"

	"repro/internal/model"
	"repro/internal/pipeline"
)

func init() {
	register("stages", "Stage-graph span breakdown (Fig. 3 at per-node granularity)", runStages)
}

// stagesFrames is how many frames each configuration averages over; the first
// frame is run but excluded from the summary (cold workspace).
const stagesFrames = 3

// runStages prints the Graph executor's per-node span breakdown for one
// representative workload per architecture under Baseline and S+N: every
// graph node (SA/FP/EC modules, fuse, embed, pool, head) with its span time
// and the sample/neighbor/group/feature split the span brackets. This is the
// instrumentation view behind Fig. 3: the critical first modules dominate,
// and the S+N columns show the Morton variants shrinking exactly those spans.
func runStages(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	rows := [][]string{{"Workload", "Config", "Node", "Layer", "Span ms", "Sample ms", "Neighbor ms", "Feature ms"}}
	for _, id := range []string{"W1", "W3"} {
		wl, err := pipeline.WorkloadByID(id)
		if err != nil {
			return nil, err
		}
		w, opts := workloadScale(wl, cfg)
		for _, kind := range []pipeline.ConfigKind{pipeline.Baseline, pipeline.SN} {
			sums, err := collectSpans(cfg, w, kind, opts)
			if err != nil {
				return nil, err
			}
			for _, s := range sums {
				layer := "-"
				if s.Layer >= 0 {
					layer = fmt.Sprintf("%d", s.Layer)
				}
				rows = append(rows, []string{
					w.ID, kind.String(), s.Node, layer,
					fmt.Sprintf("%.3f", s.Ms.Mean),
					ms(s.ByStage[model.StageSample] / time.Duration(max(1, s.Frames))),
					ms(s.ByStage[model.StageNeighbor] / time.Duration(max(1, s.Frames))),
					ms(s.ByStage[model.StageFeature] / time.Duration(max(1, s.Frames))),
				})
			}
		}
	}
	return &Result{
		ID:    "stages",
		Title: "Stage-graph span breakdown (Fig. 3 at per-node granularity)",
		Table: table(rows),
		Notes: "expect the layer-0 modules to carry the sample+neighbor cost and the S+N rows to shrink exactly those spans (morton-pick / morton-window); feature time is unchanged by S+N.",
	}, nil
}

// collectSpans runs a workload/config a few frames and summarizes the spans
// of the warm frames.
func collectSpans(cfg RunConfig, w pipeline.Workload, kind pipeline.ConfigKind, opts pipeline.Options) ([]model.SpanSummary, error) {
	net, err := pipeline.Build(w, kind, opts)
	if err != nil {
		return nil, fmt.Errorf("%s/%s: %w", w.ID, kind, err)
	}
	frame, err := pipeline.Frame(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	var traces []*model.Trace
	for i := 0; i < stagesFrames+1; i++ {
		tr, _, _, err := pipeline.Run(net, frame, cfg.Device, pipeline.SimConfig(w, kind, opts))
		if err != nil {
			return nil, fmt.Errorf("%s/%s frame %d: %w", w.ID, kind, i, err)
		}
		if i > 0 { // skip the cold-workspace frame
			traces = append(traces, tr)
		}
	}
	return model.SummarizeSpans(traces), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
