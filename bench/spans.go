package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/model"
)

// span is one timed interval the driver recorded around a layer boundary.
// Start and End are nanoseconds since the tracer was made; Parent indexes the
// causing span (-1 for a root) and Op ties the spans of one operation
// together.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced passes run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a span and returns its index, the Parent of its children.
func (t *tracer) add(name string, parent, op int, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Op: op})
	return len(t.spans) - 1
}

// addFrame records one forward pass under name and, below it, one child per
// model.Trace span and one grandchild per stage record. The model reports
// durations, not start times, so children are laid end to end from the
// frame's start: durations and nesting are measured, offsets are not.
func (t *tracer) addFrame(name string, parent, op int, start, end time.Time, tr *model.Trace) {
	if t == nil {
		return
	}
	frame := t.add(name, parent, op, start, end)
	at := start
	for _, sp := range tr.Spans {
		node := t.add("model."+sp.Node, frame, op, at, at.Add(sp.Dur))
		rat := at
		for _, rec := range tr.SpanRecords(sp) {
			t.add("model.stage."+rec.Stage.String(), node, op, rat, rat.Add(rec.Dur))
			rat = rat.Add(rec.Dur)
		}
		at = at.Add(sp.Dur)
	}
}

// selfTimes returns, per span name, the summed self time: each span's
// duration minus the part of its interval that its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make(map[string]time.Duration)
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, reach), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return self
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload string             `json:"workload"`
	SelfMS   map[string]float64 `json:"self_ms"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	f := traceFile{Workload: workload, SelfMS: map[string]float64{}, Spans: t.spans}
	for name, d := range selfTimes(t.spans) {
		f.SelfMS[name] = ms(d)
	}
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
