package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "child", Start: 10, End: 30, Parent: 0},
		{Name: "child", Start: 20, End: 50, Parent: 0},      // overlaps the first: 10..50 is covered once
		{Name: "child", Start: 90, End: 120, Parent: 0},     // spills past the parent: only 90..100 counts
		{Name: "grandchild", Start: 12, End: 18, Parent: 1}, // covers its own parent, not the root
		{Name: "other", Start: 200, End: 260, Parent: -1},
	}
	self := selfTimes(spans)
	for name, want := range map[string]time.Duration{
		"parent":     50,           // 100 - (40 + 10)
		"child":      14 + 30 + 30, // (20-6) + 30 + 30
		"grandchild": 6,
		"other":      60,
	} {
		if self[name] != want {
			t.Errorf("self time of %s = %d, want %d", name, self[name], want)
		}
	}
}

func TestTracerNilRecordsNothing(t *testing.T) {
	var tr *tracer
	if id := tr.add("x", -1, 0, time.Now(), time.Now()); id != -1 {
		t.Errorf("nil tracer returned span %d", id)
	}
}

func TestTraceFile(t *testing.T) {
	tr := newTracer()
	t0 := tr.t0
	root := tr.add("setup", -1, -1, t0, t0.Add(10*time.Millisecond))
	tr.add("generate", root, -1, t0, t0.Add(4*time.Millisecond))
	path, err := tr.write(t.TempDir(), "w")
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	if f.Workload != "w" || len(f.Spans) != 2 || f.Spans[1].Parent != 0 {
		t.Errorf("trace file %+v", f)
	}
	if got := f.SelfMS["setup"]; got != 6 {
		t.Errorf("setup self time %g ms, want 6", got)
	}
}
