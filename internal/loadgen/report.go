package loadgen

import (
	"encoding/json"
	"fmt"
	"io"
	"time"
)

// The BENCH_serve.json schema: one report carries the pinned spec, the
// optional calibration that produced the per-tier service times, the
// overload-grid scenarios (1×/10×/100× by default) and the denser
// shed-vs-degrade crossover sweep. Every count in it is reproducible from
// (spec, seed); the calibration block records where the measured inputs
// came from.

// Calibration records how SvcTiers were measured (by edgepc-loadgen
// -calibrate); nil when the spec's pinned defaults were used.
type Calibration struct {
	Workload  string    `json:"workload"`
	Config    string    `json:"config"`
	Frames    int       `json:"frames"`
	SvcNsTier []int64   `json:"svc_ns_tier"`
	Speedup   []float64 `json:"tier_speedup"` // svc[0]/svc[t]
}

// SpecSummary is the report's pinned-input block: enough to re-run the
// exact scenario grid.
type SpecSummary struct {
	Seed        uint64      `json:"seed"`
	DurationMs  float64     `json:"duration_ms"`
	RateFPS     float64     `json:"rate_fps"` // effective 1× rate (auto-resolved)
	RateAuto    bool        `json:"rate_auto"`
	ParetoAlpha float64     `json:"pareto_alpha"`
	Ramp        []RampPoint `json:"ramp,omitempty"`
	Tenants     int         `json:"tenants"`
	ZipfS       float64     `json:"zipf_s"`
	Streams     int         `json:"streams"`
	Mix         []float64   `json:"mix_high_normal_low"`
	Engines     int         `json:"engines"`
	Workers     int         `json:"workers"`
	QueueDepth  int         `json:"queue_depth"`
	SvcUsTiers  []float64   `json:"svc_us_tiers"`
	QoSRate     float64     `json:"qos_rate"`
	QoSBurst    float64     `json:"qos_burst"`
	DeadlineMs  float64     `json:"deadline_ms"`

	StallFrac      float64 `json:"stall_frac"`
	StallTimeoutMs float64 `json:"stall_timeout_ms"`
	Retries        int     `json:"retries"`
}

// CrossoverPoint is one sample of the shed-vs-degrade curve: at overload
// Mult, what fraction of offered load was shed by the fleet controller
// versus absorbed by the engines' degradation ladder.
type CrossoverPoint struct {
	Mult         float64 `json:"mult"`
	ShedFrac     float64 `json:"shed_frac"`     // shed (all causes) / offered
	DegradedFrac float64 `json:"degraded_frac"` // completions below full fidelity / offered
	GoodputFPS   float64 `json:"goodput_fps"`
	P99Ms        float64 `json:"p99_ms"`
	ShedLevelMax int     `json:"shed_level_max"`
}

// SurvivabilityPoint is one goodput-under-stall-storm row: the overload
// multiplier, the recovery policy (none / retries), and what survived the
// storm.
type SurvivabilityPoint struct {
	Mult        float64 `json:"mult"`
	Policy      string  `json:"policy"`
	StallFrac   float64 `json:"stall_frac"`
	GoodputFPS  float64 `json:"goodput_fps"`
	GoodFrac    float64 `json:"goodput_frac"` // completed / offered
	Stalled     uint64  `json:"stalled"`
	FailedStall uint64  `json:"failed_stall"`
	Retried     uint64  `json:"retried"`
	P99Ms       float64 `json:"p99_ms"`
}

// Report is the full BENCH_serve.json document.
type Report struct {
	Bench         string               `json:"bench"` // always "serve_fleet"
	Spec          SpecSummary          `json:"spec"`
	Calibration   *Calibration         `json:"calibration,omitempty"`
	Scenarios     []Scenario           `json:"scenarios"`
	Crossover     []CrossoverPoint     `json:"crossover"`
	Survivability []SurvivabilityPoint `json:"survivability"`
}

// Summarize pins a spec into its report block.
func Summarize(spec Spec) SpecSummary {
	svc := make([]float64, len(spec.SvcTiers))
	for i, d := range spec.SvcTiers {
		svc[i] = float64(d) / float64(time.Microsecond)
	}
	return SpecSummary{
		Seed:        spec.Seed,
		DurationMs:  float64(spec.Duration) / float64(time.Millisecond),
		RateFPS:     spec.EffectiveRate(),
		RateAuto:    spec.Rate <= 0,
		ParetoAlpha: spec.ParetoAlpha,
		Ramp:        spec.Ramp,
		Tenants:     spec.Tenants,
		ZipfS:       spec.ZipfS,
		Streams:     spec.Streams,
		Mix:         spec.Mix[:],
		Engines:     spec.Engines,
		Workers:     spec.Workers,
		QueueDepth:  spec.queueDepth(),
		SvcUsTiers:  svc,
		QoSRate:     spec.QoSRate,
		QoSBurst:    spec.QoSBurst,
		DeadlineMs:  float64(spec.Deadline) / float64(time.Millisecond),

		StallFrac:      spec.StallFrac,
		StallTimeoutMs: float64(spec.StallTimeout) / float64(time.Millisecond),
		Retries:        spec.Retries,
	}
}

// BuildReport runs the overload grid, the crossover sweep and the
// goodput-under-stall-storm survivability sweep and assembles the report.
// Crossover multipliers already present in the grid reuse the same run
// semantics (same seed), so the two sections agree wherever they overlap.
func BuildReport(spec Spec, mults, crossover []float64, cal *Calibration) (*Report, error) {
	scenarios, err := RunGrid(spec, mults)
	if err != nil {
		return nil, err
	}
	cross, err := RunGrid(spec, crossover)
	if err != nil {
		return nil, err
	}
	surv, err := buildSurvivability(spec, mults)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Bench:         "serve_fleet",
		Spec:          Summarize(spec),
		Calibration:   cal,
		Scenarios:     scenarios,
		Crossover:     make([]CrossoverPoint, 0, len(cross)),
		Survivability: surv,
	}
	for _, sc := range cross {
		rep.Crossover = append(rep.Crossover, crossoverPoint(sc))
	}
	return rep, nil
}

// buildSurvivability runs the stall-storm sweep: the base spec with 10%
// of dispatched attempts stalling (or the spec's own StallFrac when set),
// once per recovery policy — no recovery, two retries — at every grid
// multiplier. The rows quantify how much goodput
// each layer of DESIGN.md §15 buys back under a stall storm.
func buildSurvivability(spec Spec, mults []float64) ([]SurvivabilityPoint, error) {
	storm := spec
	if storm.StallFrac <= 0 {
		storm.StallFrac = 0.1
	}
	if storm.StallTimeout <= 0 {
		// A snappy watchdog (one tier-0 service time) so the rows measure
		// what the recovery policies buy, not watchdog detection latency:
		// with the sim's laxer 4× default the wedged-worker capacity loss
		// saturates the fleet and drowns the retry signal.
		storm.StallTimeout = spec.SvcTiers[0]
	}
	none := storm
	none.Retries = 0
	retry := none
	retry.Retries = 2
	policies := []struct {
		name string
		spec Spec
	}{{"none", none}, {"retry2", retry}}
	out := make([]SurvivabilityPoint, 0, len(policies)*len(mults))
	for _, mult := range mults {
		for _, p := range policies {
			m, err := Run(p.spec, mult)
			if err != nil {
				return nil, fmt.Errorf("survivability %s mult %g: %w", p.name, mult, err)
			}
			pt := SurvivabilityPoint{
				Mult: mult, Policy: p.name, StallFrac: p.spec.StallFrac,
				GoodputFPS: m.GoodputFPS, Stalled: m.Stalled, FailedStall: m.FailedStall,
				Retried: m.Retried, P99Ms: m.P99Ms,
			}
			if m.Offered > 0 {
				pt.GoodFrac = float64(m.Completed) / float64(m.Offered)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

func crossoverPoint(sc Scenario) CrossoverPoint {
	p := CrossoverPoint{
		Mult:         sc.Mult,
		GoodputFPS:   sc.GoodputFPS,
		P99Ms:        sc.P99Ms,
		ShedLevelMax: sc.ShedLevelMax,
	}
	if sc.Offered > 0 {
		p.ShedFrac = float64(sc.Counts.Shed()) / float64(sc.Offered)
		var degraded uint64
		for t, n := range sc.Degraded {
			if t > 0 {
				degraded += n
			}
		}
		p.DegradedFrac = float64(degraded) / float64(sc.Offered)
	}
	return p
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// CountLine renders a scenario's outcome counters as one stable line —
// what the CI determinism check diffs across two same-seed runs.
func CountLine(sc Scenario) string {
	return fmt.Sprintf("scenario mult=%g offered=%d admitted=%d completed=%d shed_throttle=%d shed_overload=%d shed_queue=%d failed_deadline=%d failed_stall=%d stalled=%d retried=%d step_downs=%d step_ups=%d shed_level_max=%d",
		sc.Mult, sc.Offered, sc.Admitted, sc.Completed, sc.ShedThrottled,
		sc.ShedOverload, sc.ShedQueueFull, sc.FailedDeadline,
		sc.FailedStall, sc.Stalled, sc.Retried,
		sc.StepDowns, sc.StepUps, sc.ShedLevelMax)
}

// SurvLine renders one survivability row as a stable count line, diffed by
// the CI determinism check alongside CountLine.
func SurvLine(p SurvivabilityPoint) string {
	return fmt.Sprintf("survivability mult=%g policy=%s stalled=%d failed_stall=%d retried=%d goodput_frac=%.4f",
		p.Mult, p.Policy, p.Stalled, p.FailedStall, p.Retried, p.GoodFrac)
}
