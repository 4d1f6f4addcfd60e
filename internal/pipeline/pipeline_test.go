package pipeline

import (
	"strings"
	"testing"

	"repro/internal/edgesim"
	"repro/internal/geom"
	"repro/internal/model"
)

func TestWorkloadTable(t *testing.T) {
	if len(Workloads) != 6 {
		t.Fatalf("Table 1 has 6 workloads, got %d", len(Workloads))
	}
	// Spot-check the Table 1 rows.
	w1, err := WorkloadByID("W1")
	if err != nil {
		t.Fatal(err)
	}
	if w1.Points != 8192 || w1.Batch != 32 || w1.Arch != ArchPointNetPP {
		t.Fatalf("W1 = %+v", w1)
	}
	w3, _ := WorkloadByID("W3")
	if w3.Points != 1024 || w3.Task != model.TaskClassification {
		t.Fatalf("W3 = %+v", w3)
	}
	if _, err := WorkloadByID("W9"); err == nil {
		t.Fatal("unknown workload: want error")
	}
}

// smallOpts shrinks the pipeline for test speed while keeping the structure.
func smallOpts() Options {
	return Options{BaseWidth: 4, Depth: 2, Modules: 3, Seed: 1}
}

func smallWorkload(w Workload) Workload {
	w.Points = 256
	w.Batch = 2
	return w
}

// runPriced runs one inference frame through net and prices its trace on
// dev: the two calls an experiment that reads a Report makes.
func runPriced(t *testing.T, net Net, cloud *geom.Cloud, dev *edgesim.Device, cfg edgesim.Config) (*model.Trace, edgesim.Report, *model.Output) {
	t.Helper()
	trace := &model.Trace{}
	out, err := net.Forward(cloud, trace, false)
	if err != nil {
		t.Fatal(err)
	}
	return trace, dev.PriceTrace(trace, cfg), out
}

func TestBuildAndRunAllWorkloadsAllConfigs(t *testing.T) {
	dev := edgesim.JetsonAGXXavier()
	for _, wl := range Workloads {
		w := smallWorkload(wl)
		cloud, err := Frame(w, 7)
		if err != nil {
			t.Fatalf("%s: frame: %v", w.ID, err)
		}
		for _, kind := range []ConfigKind{Baseline, SN, SNF} {
			net, err := Build(w, kind, smallOpts())
			if err != nil {
				t.Fatalf("%s/%s: build: %v", w.ID, kind, err)
			}
			trace, rep, out := runPriced(t, net, cloud, dev, SimConfig(w, kind, smallOpts()))
			if len(trace.Records) == 0 || rep.Total <= 0 {
				t.Fatalf("%s/%s: empty trace or zero latency", w.ID, kind)
			}
			wantRows := cloud.Len()
			if w.Task == model.TaskClassification {
				wantRows = 1
			}
			if out.Logits.Rows != wantRows {
				t.Fatalf("%s/%s: logits rows %d", w.ID, kind, out.Logits.Rows)
			}
		}
	}
}

func TestSNFasterThanBaseline(t *testing.T) {
	// The headline direction of Fig. 13a/b at full workload scale (priced
	// by the cost model from real stage traces at reduced width).
	dev := edgesim.JetsonAGXXavier()
	w := smallWorkload(Workloads[0]) // W1 shape, shrunk
	w.Points = 1024
	cloud, err := Frame(w, 3)
	if err != nil {
		t.Fatal(err)
	}
	base, err := Build(w, Baseline, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	sn, err := Build(w, SN, smallOpts())
	if err != nil {
		t.Fatal(err)
	}
	_, repB, _ := runPriced(t, base, cloud, dev, SimConfig(w, Baseline, smallOpts()))
	_, repS, _ := runPriced(t, sn, cloud, dev, SimConfig(w, SN, smallOpts()))
	if repS.SampleNeighbor >= repB.SampleNeighbor {
		t.Fatalf("S+N sample+NS %v not faster than baseline %v", repS.SampleNeighbor, repB.SampleNeighbor)
	}
	if repS.Total >= repB.Total {
		t.Fatalf("S+N total %v not faster than baseline %v", repS.Total, repB.Total)
	}
	if repS.EnergyJ >= repB.EnergyJ {
		t.Fatalf("S+N energy %v J not lower than baseline %v J", repS.EnergyJ, repB.EnergyJ)
	}
}

func TestSNFBeatsOrMatchesSN(t *testing.T) {
	dev := edgesim.JetsonAGXXavier()
	w := smallWorkload(Workloads[5]) // W6: DGCNN(s), the paper's best +F case
	opts := smallOpts()
	opts.BaseWidth = 32 // wide enough for tensor cores to engage
	cloud, err := Frame(w, 4)
	if err != nil {
		t.Fatal(err)
	}
	sn, err := Build(w, SN, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, repSN, _ := runPriced(t, sn, cloud, dev, SimConfig(w, SN, opts))
	snf, err := Build(w, SNF, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, repSNF, _ := runPriced(t, snf, cloud, dev, SimConfig(w, SNF, opts))
	if repSNF.Total > repSN.Total {
		t.Fatalf("S+N+F (%v) slower than S+N (%v)", repSNF.Total, repSN.Total)
	}
}

func TestFrameDatasets(t *testing.T) {
	for _, wl := range Workloads {
		w := smallWorkload(wl)
		cloud, err := Frame(w, 1)
		if err != nil {
			t.Fatalf("%s: %v", w.ID, err)
		}
		if cloud.Len() < w.Points {
			t.Fatalf("%s: %d points, want ≥ %d", w.ID, cloud.Len(), w.Points)
		}
		if w.Task == model.TaskSegmentation && cloud.Labels == nil {
			t.Fatalf("%s: segmentation frame lacks labels", w.ID)
		}
	}
	if _, err := Frame(Workload{Dataset: "nope"}, 1); err == nil {
		t.Fatal("unknown dataset: want error")
	}
}

func TestSimConfig(t *testing.T) {
	w, _ := WorkloadByID("W6")
	cfg := SimConfig(w, SNF, Options{})
	if !cfg.TensorCores || !cfg.Reuse || cfg.Batch != 14 {
		t.Fatalf("W6 SNF sim config = %+v", cfg)
	}
	cfg = SimConfig(w, Baseline, Options{})
	if cfg.TensorCores || cfg.Reuse {
		t.Fatalf("baseline sim config = %+v", cfg)
	}
	w1, _ := WorkloadByID("W1")
	cfg = SimConfig(w1, SN, Options{})
	if cfg.Reuse {
		t.Fatal("PointNet++ must not report reuse memory pressure")
	}
}

func TestDelayedAggregationTransform(t *testing.T) {
	tr := &model.Trace{}
	tr.Add(model.StageRecord{Stage: model.StageNeighbor, Layer: 0, Algo: "ball-query", N: 1024, Q: 256, K: 8})
	tr.Add(model.StageRecord{Stage: model.StageGroup, Layer: 0, Algo: "gather", Q: 256, K: 8, CIn: 16})
	tr.Add(model.StageRecord{Stage: model.StageFeature, Layer: 0, Algo: "shared-mlp", Q: 256 * 8, CIn: 16, COut: 64})
	da := DelayedAggregation(tr)
	if len(da.Records) != 3 {
		t.Fatalf("records = %d", len(da.Records))
	}
	var feat, group model.StageRecord
	for _, r := range da.Records {
		switch r.Stage {
		case model.StageFeature:
			feat = r
		case model.StageGroup:
			group = r
		}
	}
	if feat.Q != 256 {
		t.Fatalf("DA feature rows = %d, want 256 (per point, not per grouped row)", feat.Q)
	}
	if group.CIn != 64 {
		t.Fatalf("DA grouping width = %d, want the MLP output width 64", group.CIn)
	}
	// Shape check against §6.4: FC gets faster, grouping gets slower.
	dev := edgesim.JetsonAGXXavier()
	cfg := edgesim.Config{Batch: 32}
	base := dev.PriceTrace(tr, cfg)
	dar := dev.PriceTrace(da, cfg)
	var baseFeat, daFeat, baseGroup, daGroup float64
	for i := range base.Records {
		switch base.Records[i].Stage {
		case model.StageFeature:
			baseFeat += base.Records[i].Latency.Seconds()
			daFeat += dar.Records[i].Latency.Seconds()
		case model.StageGroup:
			baseGroup += base.Records[i].Latency.Seconds()
			daGroup += dar.Records[i].Latency.Seconds()
		}
	}
	if daFeat >= baseFeat {
		t.Fatalf("DA did not speed up feature compute: %v → %v", baseFeat, daFeat)
	}
	if daGroup <= baseGroup {
		t.Fatalf("DA did not slow down grouping: %v → %v", baseGroup, daGroup)
	}
}

func TestConfigKindString(t *testing.T) {
	if Baseline.String() != "baseline" || SN.String() != "S+N" || SNF.String() != "S+N+F" {
		t.Fatal("config names wrong")
	}
	if ConfigKind(9).String() != "unknown" {
		t.Fatal("unknown config name")
	}
}

// ParseConfig accepts every spelling the commands' -config flag has taken,
// in any case, and names the valid ones when it refuses.
func TestParseConfig(t *testing.T) {
	for _, c := range []struct {
		in   string
		want ConfigKind
	}{
		{"baseline", Baseline}, {"Baseline", Baseline}, {"BASELINE", Baseline},
		{"S+N", SN}, {"s+n", SN}, {"SN", SN}, {"sn", SN},
		{"S+N+F", SNF}, {"s+n+f", SNF}, {"SNF", SNF}, {"snf", SNF},
	} {
		got, err := ParseConfig(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseConfig(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		// Every config's own name parses back to it.
		if back, err := ParseConfig(got.String()); err != nil || back != got {
			t.Fatalf("ParseConfig(%q) = %v, %v", got.String(), back, err)
		}
	}
	for _, bad := range []string{"", "turbo", "s+", "s n", "S+N+", "snff", "unknown"} {
		_, err := ParseConfig(bad)
		if err == nil {
			t.Fatalf("ParseConfig(%q) accepted", bad)
		}
		if !strings.Contains(err.Error(), "unknown config") || !strings.Contains(err.Error(), "baseline, S+N or S+N+F") {
			t.Fatalf("ParseConfig(%q): %v", bad, err)
		}
	}
}

// Quick shrinks the cloud and the net and leaves everything else alone.
func TestQuickPreset(t *testing.T) {
	w, err := WorkloadByID("W3")
	if err != nil {
		t.Fatal(err)
	}
	qw, qo := Quick(w, Options{Seed: 7, WindowW: 5})
	if qw.Points != 256 || qw.Batch != 1 || qw.ID != w.ID || qw.K != w.K {
		t.Fatalf("quick workload %+v", qw)
	}
	if qo != (Options{Seed: 7, WindowW: 5, BaseWidth: 8, Depth: 2, Modules: 2}) {
		t.Fatalf("quick options %+v", qo)
	}
}
