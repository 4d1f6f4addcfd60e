package experiments

import (
	"fmt"

	"repro/internal/edgesim"
	"repro/internal/model"
	"repro/internal/pipeline"
)

func init() {
	register("devices", "Extension: EdgePC across edge-device tiers", runDevices)
}

// runDevices prices the W2 pipeline (PointNet++ on ScanNet-like frames)
// across three device tiers. The paper evaluates one board (AGX Xavier);
// the cost model makes the tier question answerable: does the optimization
// matter more or less as the device weakens? (More: the bottleneck stages
// are compute-bound, so weaker parts spend proportionally longer in them,
// and real-time deadlines arrive sooner.)
func runDevices(cfg RunConfig) (*Result, error) {
	cfg.defaults()
	w, err := pipeline.WorkloadByID("W2")
	if err != nil {
		return nil, err
	}
	w, opts := workloadScale(w, cfg)
	// Run the pipelines once; the traces are device-independent.
	frame, err := pipeline.Frame(w, cfg.Seed)
	if err != nil {
		return nil, err
	}
	baseNet, err := pipeline.Build(w, pipeline.Baseline, opts)
	if err != nil {
		return nil, err
	}
	snNet, err := pipeline.Build(w, pipeline.SN, opts)
	if err != nil {
		return nil, err
	}
	baseTrace, snTrace := &model.Trace{}, &model.Trace{}
	if _, err := baseNet.Forward(frame, baseTrace, false); err != nil {
		return nil, err
	}
	if _, err := snNet.Forward(frame, snTrace, false); err != nil {
		return nil, err
	}

	devices := []*edgesim.Device{
		edgesim.JetsonNano(),
		edgesim.JetsonAGXXavier(),
		edgesim.JetsonOrinNX(),
	}
	rows := [][]string{{"Device", "Baseline E2E ms", "EdgePC E2E ms", "Speedup", "Energy saving", "30Hz deadline"}}
	for _, dev := range devices {
		base := dev.PriceTrace(baseTrace, pipeline.SimConfig(w, pipeline.Baseline, opts))
		sn := dev.PriceTrace(snTrace, pipeline.SimConfig(w, pipeline.SN, opts))
		deadline := "both ok"
		const budgetMS = 33.0
		baseMS := base.Total.Seconds() * 1e3
		snMS := sn.Total.Seconds() * 1e3
		switch {
		case snMS > budgetMS:
			deadline = "both miss"
		case baseMS > budgetMS:
			deadline = "only EdgePC"
		}
		rows = append(rows, []string{
			dev.Name,
			ms(base.Total), ms(sn.Total),
			fmt.Sprintf("%.2fx", base.Total.Seconds()/sn.Total.Seconds()),
			pct(1 - sn.EnergyJ/base.EnergyJ),
			deadline,
		})
	}
	return &Result{
		ID:    "devices",
		Title: "Extension: W2 (PointNet++/ScanNet) across device tiers",
		Table: table(rows),
		Notes: "Not a paper figure — the tier sweep the cost model enables. The speedup ratio is " +
			"similar across tiers (the bottleneck is structural); what changes is where the 30 Hz " +
			"frame budget becomes holdable — EdgePC moves that boundary a full device tier down " +
			"(at this workload scale, the fastest tier holds 30 Hz only with EdgePC).",
	}, nil
}
