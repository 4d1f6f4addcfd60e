package model

import (
	"testing"

	"repro/internal/core"
)

// TestGraphSpansBracketRecords checks the executor's span instrumentation:
// one span per graph node in execution order, each bracketing exactly the
// stage records its node emitted.
func TestGraphSpansBracketRecords(t *testing.T) {
	net, err := NewPointNetPP(tinyPPConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	if _, err := net.Forward(testCloud(64, 2), trace, false); err != nil {
		t.Fatal(err)
	}

	wantNodes := []string{"structurize", "sa0", "sa1", "fp0", "fp1", "head"}
	wantLayers := []int{-1, 0, 1, 0, 1, -1}
	if len(trace.Spans) != len(wantNodes) {
		t.Fatalf("spans = %d, want %d (%v)", len(trace.Spans), len(wantNodes), trace.Spans)
	}
	prevEnd := 0
	for i, sp := range trace.Spans {
		if sp.Node != wantNodes[i] || sp.Layer != wantLayers[i] {
			t.Fatalf("span %d = %s/%d, want %s/%d", i, sp.Node, sp.Layer, wantNodes[i], wantLayers[i])
		}
		if sp.Rec0 != prevEnd || sp.Rec1 < sp.Rec0 {
			t.Fatalf("span %s brackets [%d,%d), previous ended at %d", sp.Node, sp.Rec0, sp.Rec1, prevEnd)
		}
		prevEnd = sp.Rec1
	}
	if prevEnd != len(trace.Records) {
		t.Fatalf("spans cover %d of %d records", prevEnd, len(trace.Records))
	}

	// An SA node's span brackets its sample/neighbor/group/feature records.
	sa0 := trace.Spans[1]
	recs := trace.SpanRecords(sa0)
	if len(recs) != 4 || recs[0].Stage != StageSample || recs[1].Stage != StageNeighbor ||
		recs[2].Stage != StageGroup || recs[3].Stage != StageFeature {
		t.Fatalf("sa0 records = %v", recs)
	}
	// The head runs no traced stage: an empty bracket, not a missing span.
	head := trace.Spans[len(trace.Spans)-1]
	if head.Rec0 != head.Rec1 {
		t.Fatalf("head span brackets %d records", head.Rec1-head.Rec0)
	}
}

func TestSummarizeSpans(t *testing.T) {
	net, err := NewPointNetPP(tinyPPConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(64, 2)
	var traces []*Trace
	for i := 0; i < 3; i++ {
		tr := &Trace{}
		if _, err := net.Forward(cloud, tr, false); err != nil {
			t.Fatal(err)
		}
		traces = append(traces, tr)
	}
	sums := SummarizeSpans(append(traces, nil)) // nil traces are skipped
	if len(sums) != 6 {
		t.Fatalf("summaries = %d, want 6", len(sums))
	}
	sa0 := sums[1]
	if sa0.Node != "sa0" || sa0.Layer != 0 || sa0.Frames != 3 || sa0.Ms.N != 3 {
		t.Fatalf("sa0 summary = %+v", sa0)
	}
	if sa0.ByStage[StageSample] <= 0 || sa0.ByStage[StageNeighbor] <= 0 || sa0.ByStage[StageFeature] <= 0 {
		t.Fatalf("sa0 stage split = %v", sa0.ByStage)
	}
	if sums[5].Node != "head" || len(sums[5].ByStage) != 0 {
		t.Fatalf("head summary = %+v", sums[5])
	}
	if got := SummarizeSpans(nil); len(got) != 0 {
		t.Fatalf("empty input: %v", got)
	}
}

// TestPointNetPPReuseAtDistance1 exercises the generalized §5.2.3 reuse on
// PointNet++: with distance 1, the SA1 module must serve its neighbor
// indexes by projecting SA0's cached result through the sampling map instead
// of searching, visible in the trace records its span brackets.
func TestPointNetPPReuseAtDistance1(t *testing.T) {
	cfg := tinyPPConfig(true)
	cfg.Reuse = core.ReusePolicy{Distance: 1}
	net, err := NewPointNetPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cloud := testCloud(64, 2)
	trace := &Trace{}
	out, err := net.Forward(cloud, trace, false)
	if err != nil {
		t.Fatal(err)
	}
	if out.Logits.Rows != 64 || out.Logits.Cols != 3 {
		t.Fatalf("logits %dx%d", out.Logits.Rows, out.Logits.Cols)
	}

	nbrBySpan := map[string]StageRecord{}
	for _, sp := range trace.Spans {
		for _, r := range trace.SpanRecords(sp) {
			if r.Stage == StageNeighbor {
				nbrBySpan[sp.Node] = r
			}
		}
	}
	if r := nbrBySpan["sa0"]; r.Algo != "morton-window" || r.Reused {
		t.Fatalf("sa0 neighbor = %+v, want computed morton-window", r)
	}
	if r := nbrBySpan["sa1"]; r.Algo != "reuse" || !r.Reused {
		t.Fatalf("sa1 neighbor = %+v, want projected reuse", r)
	}

	// The reused run must agree with the searched run everywhere except the
	// neighbor sets themselves — same shapes, deterministic across frames.
	trace2 := &Trace{}
	out2, err := net.Forward(cloud, trace2, false)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Logits.Equal(out.Logits) {
		t.Fatal("reuse forward is not deterministic across frames")
	}
}

// TestPointNetPPReuseFallsBackWithoutProjection: FPS sampling does not keep
// the parent index map ascending, so the projection is unavailable and a
// reuse layer must transparently fall back to a real search.
func TestPointNetPPReuseFallsBackWithoutProjection(t *testing.T) {
	cfg := tinyPPConfig(false) // FPS everywhere
	cfg.Reuse = core.ReusePolicy{Distance: 1}
	net, err := NewPointNetPP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	trace := &Trace{}
	if _, err := net.Forward(testCloud(64, 2), trace, false); err != nil {
		t.Fatal(err)
	}
	var nbr []StageRecord
	for _, r := range trace.Records {
		if r.Stage == StageNeighbor {
			nbr = append(nbr, r)
		}
	}
	if len(nbr) != 2 || nbr[1].Reused || nbr[1].Algo == "reuse" {
		t.Fatalf("FPS run must search at every layer, got %+v", nbr)
	}
}
