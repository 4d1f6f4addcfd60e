// Package model implements the two point-cloud CNN architectures the paper
// evaluates — PointNet++ (SetAbstraction + FeaturePropagation modules) and
// DGCNN (EdgeConv modules) — with forward *and* backward passes, and with the
// sample / neighbor-search / interpolation stages of the leading modules
// switchable between the SOTA algorithms (FPS, k-NN, 3-NN) and the EdgePC
// Morton-code approximations.
//
// Every stage a model executes is recorded in a Trace: which algorithm ran,
// over how many points/queries/neighbors, at which feature widths, and how
// long it took. The edgesim package prices these records with the
// edge-device cost model to regenerate the paper's latency and energy
// figures; the records' wall-clock durations provide a second, directly
// measured signal.
package model

import "time"

// StageKind classifies pipeline stages, following the paper's breakdown
// (Fig. 3 groups Sample+Neighbor vs Feature Compute; Fig. 9 and Fig. 11
// split per layer).
type StageKind int

// Pipeline stage kinds.
const (
	StageSample      StageKind = iota // down-sampling (FPS / Morton uniform)
	StageNeighbor                     // neighbor search (BQ / kNN / Morton window)
	StageGroup                        // feature gathering into (q·k, C) matrices
	StageFeature                      // shared-MLP feature computation
	StageInterp                       // up-sampling interpolation (FP modules)
	StageStructurize                  // Morton encode + sort (EdgePC only)
)

var stageNames = [...]string{"sample", "neighbor", "group", "feature", "interp", "structurize"}

// String names the stage kind.
func (k StageKind) String() string {
	if k < 0 || int(k) >= len(stageNames) {
		return "unknown"
	}
	return stageNames[k]
}

// StageRecord describes one executed stage: the operation shape the
// edge-device cost model needs, plus the measured wall time.
type StageRecord struct {
	Stage StageKind
	Layer int    // module index within the network (0-based)
	Algo  string // algorithm name, e.g. "fps", "morton-pick", "knn-brute", "morton-window", "reuse"

	N      int  // candidate point count
	Q      int  // query / output point count
	K      int  // neighbors per query
	W      int  // window size (Morton window search) or candidate count (interp)
	CIn    int  // input feature width (feature/group stages)
	COut   int  // output feature width (feature stages)
	Reused bool // true when the stage was skipped via neighbor-index reuse

	Dur time.Duration // measured wall time of this stage
}

// Span is the per-graph-node timing record the Graph executor emits: one
// span per Stage it ran (plus one for structurization), with the half-open
// range of Records the stage produced so a span can be broken down into the
// paper's sample / neighbor / group / feature categories (Fig. 3).
type Span struct {
	Node  string // graph-node name, e.g. "sa0", "fp1", "embed", "head"
	Layer int    // module index within the network (-1 for non-module nodes)
	Dur   time.Duration
	// Rec0/Rec1 delimit the Records ([Rec0, Rec1)) emitted while this node
	// ran.
	Rec0, Rec1 int
}

// Trace accumulates stage records for one inference. A nil *Trace is valid
// and records nothing.
type Trace struct {
	Records []StageRecord
	// Spans holds one entry per executed graph node (see Graph.Forward);
	// empty for code paths that bypass the stage-graph executor.
	Spans []Span
}

// Add appends a record. Safe on a nil receiver.
func (t *Trace) Add(rec StageRecord) {
	if t == nil {
		return
	}
	if t.Records == nil {
		// One up-front block instead of append's doubling chain: a fresh
		// per-frame Trace costs one allocation here, a serving Trace reused
		// across frames none.
		t.Records = make([]StageRecord, 0, 32)
	}
	t.Records = append(t.Records, rec)
}

// AddSpan appends a graph-node span. Safe on a nil receiver.
func (t *Trace) AddSpan(s Span) {
	if t == nil {
		return
	}
	if t.Spans == nil {
		t.Spans = make([]Span, 0, 16)
	}
	t.Spans = append(t.Spans, s)
}

// SpanRecords returns the stage records covered by a span (a view into
// t.Records; do not retain across Reset).
func (t *Trace) SpanRecords(s Span) []StageRecord {
	if t == nil || s.Rec0 < 0 || s.Rec1 > len(t.Records) || s.Rec0 > s.Rec1 {
		return nil
	}
	return t.Records[s.Rec0:s.Rec1]
}

// timed runs f and returns its wall-clock duration.
func timed(f func() error) (time.Duration, error) {
	start := time.Now()
	err := f()
	return time.Since(start), err
}

// DurByStage sums measured durations per stage kind.
func (t *Trace) DurByStage() map[StageKind]time.Duration {
	out := make(map[StageKind]time.Duration)
	if t == nil {
		return out
	}
	for _, r := range t.Records {
		out[r.Stage] += r.Dur
	}
	return out
}

// Reset clears the trace for reuse across frames.
func (t *Trace) Reset() {
	if t != nil {
		t.Records = t.Records[:0]
		t.Spans = t.Spans[:0]
	}
}
