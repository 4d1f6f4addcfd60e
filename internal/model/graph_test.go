package model

import "testing"

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
