// Package loadgen is the deterministic fleet traffic harness (DESIGN.md
// §13): an open-loop, discrete-event simulation of the serving fleet in
// which every policy decision is made by the live stack's own code
// (internal/serve) — the consistent-hash ring, per-tenant token buckets and
// shed controller, each engine's degradation Ladder, and the retry policy —
// driven in virtual time by a seeded PRNG and an injected clock;
// only frame execution (queue, service time, stalls) is modelled. Arrivals are
// heavy-tailed (Pareto inter-arrival times), modulated by a diurnal ramp
// schedule, and spread across tenants by a Zipf skew; engine service times
// per degradation tier come from a calibration measurement or a pinned
// spec, so a run's every admit/shed/degrade decision is a pure function of
// (spec, seed): same seed ⇒ bit-identical counts, which is what lets the
// overload benchmarks and the tests built on them assert exact outcomes at
// million-arrival scale with zero wall-clock sleeps.
package loadgen

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// SpecError is the typed parse/validation failure for scenario specs: the
// offending field, the rejected value, and why. Match with errors.As.
type SpecError struct {
	Field  string
	Value  string
	Reason string
}

func (e *SpecError) Error() string {
	if e.Value == "" {
		return fmt.Sprintf("loadgen: spec field %q: %s", e.Field, e.Reason)
	}
	return fmt.Sprintf("loadgen: spec field %q = %q: %s", e.Field, e.Value, e.Reason)
}

func specErr(field, value, reason string) error {
	return &SpecError{Field: field, Value: value, Reason: reason}
}

// RampPoint is one breakpoint of the diurnal schedule: at fraction At of
// the scenario duration, the arrival rate is scaled by Mult (linear
// interpolation between breakpoints).
type RampPoint struct {
	At   float64 // position in [0,1] of the scenario duration
	Mult float64 // rate multiplier at that position, >= 0
}

// Spec is one loadgen scenario. Build from Defaults()/Quick() and override
// via flags or a compact ParseSpec string.
type Spec struct {
	Seed     uint64        // PRNG seed; every random draw derives from it
	Duration time.Duration // virtual scenario length

	// Arrivals: open-loop, rate base Rate (frames/s) scaled by the overload
	// multiplier and the ramp. Rate <= 0 means "auto": the fleet's modelled
	// full-fidelity capacity (workers / svc[0]), so multiplier 1 is exactly
	// 1× capacity and 10×/100× are true overload factors.
	Rate        float64
	ParetoAlpha float64     // inter-arrival tail exponent, > 1
	Ramp        []RampPoint // empty: flat schedule

	// Tenant population.
	Tenants int
	ZipfS   float64                // tenant skew exponent, >= 0 (0: uniform)
	Streams int                    // streams per tenant (routing keys)
	Mix     [numPriorities]float64 // tenant-class mix high/normal/low, sums to ~1

	// Fleet shape.
	Engines int
	Workers int // per engine
	Queue   int // per-engine queue depth; 0: 4× workers

	// Service model: SvcTiers[t] is the per-frame service time at
	// degradation tier t (t = 0 full fidelity). len(SvcTiers) fixes the
	// ladder depth; when each engine steps is serve.Ladder's fixed policy,
	// and when the fleet sheds serve.ShedController's.
	SvcTiers []time.Duration

	// Per-tenant QoS token buckets; QoSRate <= 0 disables throttling.
	QoSRate  float64
	QoSBurst float64

	Deadline time.Duration // per-frame deadline at service start; 0: none

	// Survivability model (DESIGN.md §15). StallFrac > 0 injects worker
	// stalls: a stalled attempt wedges its worker until the modelled watchdog
	// reclaims it at StallTimeout. Retries is serve.RetryPolicy.Max: a stalled
	// frame is re-dispatched on the next ring candidate after the policy's
	// backoff, never past the deadline budget.
	StallFrac    float64       // fraction of dispatched attempts that stall, [0,1]
	StallTimeout time.Duration // watchdog reclaim delay; 0: 4× SvcTiers[0]
	Retries      int           // max re-dispatches of a stalled frame, [0,8]
}

const numPriorities = 3

// Defaults is the full-scale scenario baseline: a 4-engine fleet driven at
// its modelled capacity with heavy-tailed arrivals and 20k Zipf-skewed
// tenants. SvcTiers has the shape of pipeline.DegradeTiers: full fidelity
// and one rung, at 0.45× the service time (measured 0.37–0.41× on W1 at full
// scale, 0.53× at the -quick scale; -calibrate replaces both).
func Defaults() Spec {
	return Spec{
		Seed:        1,
		Duration:    4 * time.Second,
		Rate:        0, // auto: fleet capacity
		ParetoAlpha: 1.5,
		Tenants:     20000,
		ZipfS:       1.1,
		Streams:     4,
		Mix:         [numPriorities]float64{0.2, 0.5, 0.3},
		Engines:     4,
		Workers:     2,
		SvcTiers:    []time.Duration{2 * time.Millisecond, 900 * time.Microsecond},
		QoSRate:     0,
		QoSBurst:    0,
	}
}

// Quick is the CI-scale scenario: a 2-engine fleet and a 400ms virtual
// window, finishing in a couple of wall seconds at 100× overload.
func Quick() Spec {
	s := Defaults()
	s.Duration = 400 * time.Millisecond
	s.Tenants = 500
	s.Engines = 2
	s.Workers = 2
	s.SvcTiers = []time.Duration{800 * time.Microsecond, 360 * time.Microsecond}
	return s
}

// Validate checks every field and returns a *SpecError naming the first
// violation. A validated spec is guaranteed runnable by Run.
func (s *Spec) Validate() error {
	if s.Duration <= 0 {
		return specErr("duration", s.Duration.String(), "must be positive")
	}
	if s.Duration > time.Hour {
		return specErr("duration", s.Duration.String(), "virtual duration capped at 1h")
	}
	if !(s.Rate >= 0) {
		return specErr("rate", fmt.Sprint(s.Rate), "must be >= 0 (0 = auto capacity)")
	}
	if s.Rate > 1e7 {
		return specErr("rate", fmt.Sprint(s.Rate), "capped at 1e7 frames/s")
	}
	if !(s.ParetoAlpha > 1) || s.ParetoAlpha > 100 {
		return specErr("alpha", fmt.Sprint(s.ParetoAlpha), "Pareto tail exponent must be in (1, 100] for a finite mean")
	}
	for i, p := range s.Ramp {
		if !(p.At >= 0) || p.At > 1 || !(p.Mult >= 0) || p.Mult > 1e4 {
			return specErr("ramp", fmt.Sprintf("%g:%g", p.At, p.Mult), "breakpoints need position in [0,1] and multiplier in [0,1e4]")
		}
		if i > 0 && p.At < s.Ramp[i-1].At {
			return specErr("ramp", fmt.Sprintf("%g:%g", p.At, p.Mult), "breakpoint positions must be non-decreasing")
		}
	}
	if s.Tenants < 1 || s.Tenants > 2_000_000 {
		return specErr("tenants", fmt.Sprint(s.Tenants), "must be in [1, 2000000]")
	}
	if !(s.ZipfS >= 0) || s.ZipfS > 10 {
		return specErr("zipf", fmt.Sprint(s.ZipfS), "skew exponent must be in [0, 10]")
	}
	if s.Streams < 1 || s.Streams > 1024 {
		return specErr("streams", fmt.Sprint(s.Streams), "must be in [1, 1024]")
	}
	var mixSum float64
	for _, m := range s.Mix {
		if !(m >= 0) {
			return specErr("mix", fmt.Sprint(m), "class fractions must be >= 0")
		}
		mixSum += m
	}
	if mixSum <= 0 {
		return specErr("mix", "", "class fractions must sum to > 0")
	}
	if s.Engines < 1 || s.Engines > 256 {
		return specErr("engines", fmt.Sprint(s.Engines), "must be in [1, 256]")
	}
	if s.Workers < 1 || s.Workers > 1024 {
		return specErr("workers", fmt.Sprint(s.Workers), "must be in [1, 1024]")
	}
	if s.Queue < 0 || s.Queue > 1<<20 {
		return specErr("queue", fmt.Sprint(s.Queue), "must be in [0, 1048576]")
	}
	if len(s.SvcTiers) == 0 {
		return specErr("svc", "", "need at least one service-time tier")
	}
	if len(s.SvcTiers) > 16 {
		return specErr("svc", fmt.Sprint(len(s.SvcTiers)), "at most 16 tiers")
	}
	for _, d := range s.SvcTiers {
		if d <= 0 || d > time.Minute {
			return specErr("svc", d.String(), "tier service times must be in (0, 1m]")
		}
	}
	if !(s.QoSRate >= 0) || s.QoSRate > 1e7 {
		return specErr("qos-rate", fmt.Sprint(s.QoSRate), "must be in [0, 1e7]")
	}
	if !(s.QoSBurst >= 0) || s.QoSBurst > 1e7 {
		return specErr("qos-burst", fmt.Sprint(s.QoSBurst), "must be in [0, 1e7]")
	}
	if s.Deadline < 0 || s.Deadline > time.Hour {
		return specErr("deadline", s.Deadline.String(), "must be in [0, 1h]")
	}
	if !(s.StallFrac >= 0) || s.StallFrac > 1 {
		return specErr("stall-frac", fmt.Sprint(s.StallFrac), "stalled-attempt fraction must be in [0, 1]")
	}
	if s.StallTimeout < 0 || s.StallTimeout > time.Minute {
		return specErr("stall-timeout", s.StallTimeout.String(), "must be in [0, 1m] (0: 4x the tier-0 service time)")
	}
	if s.Retries < 0 || s.Retries > 8 {
		return specErr("retries", fmt.Sprint(s.Retries), "must be in [0, 8]")
	}
	// Bound total modelled arrivals so a spec cannot ask for an unrunnable
	// simulation (CI runs attacker-shaped fuzz corpora through here).
	rate := s.Rate
	if rate <= 0 {
		rate = s.capacity()
	}
	maxMult := 1.0
	for _, p := range s.Ramp {
		if p.Mult > maxMult {
			maxMult = p.Mult
		}
	}
	if arrivals := rate * maxMult * s.Duration.Seconds(); arrivals > 5e7 {
		return specErr("rate", fmt.Sprintf("%.0f arrivals", arrivals), "spec implies more than 5e7 arrivals; shorten duration or lower rate")
	}
	return nil
}

// capacity is the fleet's modelled full-fidelity service capacity in
// frames/second — the meaning of "1×" when Rate is auto.
func (s *Spec) capacity() float64 {
	if len(s.SvcTiers) == 0 || s.SvcTiers[0] <= 0 {
		return 0
	}
	return float64(s.Engines*s.Workers) / s.SvcTiers[0].Seconds()
}

// queueDepth is the per-engine queue depth after defaulting (4× workers,
// serve.Config's default).
func (s *Spec) queueDepth() int {
	if s.Queue > 0 {
		return s.Queue
	}
	return 4 * s.Workers
}

// ParseSpec overlays a compact scenario string onto base and validates the
// result. The format is semicolon-separated key=value pairs; list-valued
// fields use commas inside the value:
//
//	"rate=500;mult-independent fields...;ramp=0:1,0.5:2,1:1;svc=2ms,1ms;mix=0.2,0.5,0.3"
//
// Recognized keys: seed, duration, rate, alpha, ramp, tenants, zipf,
// streams, mix, engines, workers, queue, svc, qos-rate, qos-burst,
// deadline, stall-frac, stall-timeout, retries. The fleet's policy
// thresholds — ladder and shed watermarks, ring vnodes, spillover — are
// internal/serve's constants, so no key sets them. Every failure is a
// *SpecError.
func ParseSpec(s string, base Spec) (Spec, error) {
	out := base
	for _, pair := range strings.Split(s, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		k, v, ok := strings.Cut(pair, "=")
		k, v = strings.TrimSpace(k), strings.TrimSpace(v)
		if !ok || k == "" {
			return out, specErr("spec", pair, "want key=value")
		}
		if err := out.set(k, v); err != nil {
			return out, err
		}
	}
	if err := out.Validate(); err != nil {
		return out, err
	}
	return out, nil
}

// set applies one key=value pair.
func (s *Spec) set(k, v string) error {
	switch k {
	case "seed":
		u, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return specErr(k, v, "want unsigned integer")
		}
		s.Seed = u
	case "duration":
		return parseDurField(k, v, &s.Duration)
	case "rate":
		return parseFloatField(k, v, &s.Rate)
	case "alpha":
		return parseFloatField(k, v, &s.ParetoAlpha)
	case "ramp":
		r, err := ParseRamp(v)
		if err != nil {
			return err
		}
		s.Ramp = r
	case "tenants":
		return parseIntField(k, v, &s.Tenants)
	case "zipf":
		return parseFloatField(k, v, &s.ZipfS)
	case "streams":
		return parseIntField(k, v, &s.Streams)
	case "mix":
		m, err := ParseMix(v)
		if err != nil {
			return err
		}
		s.Mix = m
	case "engines":
		return parseIntField(k, v, &s.Engines)
	case "workers":
		return parseIntField(k, v, &s.Workers)
	case "queue":
		return parseIntField(k, v, &s.Queue)
	case "svc":
		tiers, err := ParseDurList("svc", v)
		if err != nil {
			return err
		}
		s.SvcTiers = tiers
	case "qos-rate":
		return parseFloatField(k, v, &s.QoSRate)
	case "qos-burst":
		return parseFloatField(k, v, &s.QoSBurst)
	case "deadline":
		return parseDurField(k, v, &s.Deadline)
	case "stall-frac":
		return parseFloatField(k, v, &s.StallFrac)
	case "stall-timeout":
		return parseDurField(k, v, &s.StallTimeout)
	case "retries":
		return parseIntField(k, v, &s.Retries)
	default:
		return specErr(k, v, "unknown key")
	}
	return nil
}

func parseIntField(k, v string, dst *int) error {
	n, err := strconv.Atoi(v)
	if err != nil {
		return specErr(k, v, "want integer")
	}
	*dst = n
	return nil
}

func parseFloatField(k, v string, dst *float64) error {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return specErr(k, v, "want finite number")
	}
	*dst = f
	return nil
}

func parseDurField(k, v string, dst *time.Duration) error {
	d, err := time.ParseDuration(v)
	if err != nil {
		return specErr(k, v, "want duration (e.g. 2s, 500ms)")
	}
	*dst = d
	return nil
}

// ParseRamp parses a diurnal schedule "at:mult,at:mult,..." with positions
// as fractions of the scenario duration, e.g. "0:1,0.5:3,1:1" for a ramp to
// 3× at the midpoint and back.
func ParseRamp(v string) ([]RampPoint, error) {
	if strings.TrimSpace(v) == "" {
		return nil, nil
	}
	parts := strings.Split(v, ",")
	ramp := make([]RampPoint, 0, len(parts))
	for _, p := range parts {
		at, mult, ok := strings.Cut(strings.TrimSpace(p), ":")
		if !ok {
			return nil, specErr("ramp", p, "want at:mult breakpoints")
		}
		a, err1 := strconv.ParseFloat(at, 64)
		m, err2 := strconv.ParseFloat(mult, 64)
		if err1 != nil || err2 != nil {
			return nil, specErr("ramp", p, "want numeric at:mult")
		}
		ramp = append(ramp, RampPoint{At: a, Mult: m})
	}
	return ramp, nil
}

// ParseMix parses a priority class mix "high,normal,low", e.g.
// "0.2,0.5,0.3".
func ParseMix(v string) ([numPriorities]float64, error) {
	var mix [numPriorities]float64
	parts := strings.Split(v, ",")
	if len(parts) != numPriorities {
		return mix, specErr("mix", v, fmt.Sprintf("want %d comma-separated fractions (high,normal,low)", numPriorities))
	}
	for i, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return mix, specErr("mix", p, "want number")
		}
		mix[i] = f
	}
	return mix, nil
}

// ParseDurList parses a comma-separated duration list, e.g. "2ms,1ms,700us".
func ParseDurList(field, v string) ([]time.Duration, error) {
	if strings.TrimSpace(v) == "" {
		return nil, specErr(field, v, "want comma-separated durations")
	}
	parts := strings.Split(v, ",")
	out := make([]time.Duration, 0, len(parts))
	for _, p := range parts {
		d, err := time.ParseDuration(strings.TrimSpace(p))
		if err != nil {
			return nil, specErr(field, p, "want duration (e.g. 2ms)")
		}
		out = append(out, d)
	}
	return out, nil
}

// ParseMults parses the overload multiplier list, e.g. "1,10,100". Every
// failure is a *SpecError.
func ParseMults(v string) ([]float64, error) {
	if strings.TrimSpace(v) == "" {
		return nil, specErr("mults", v, "want comma-separated multipliers")
	}
	parts := strings.Split(v, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		f, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, specErr("mults", p, "want number")
		}
		if !(f > 0) || f > 1e4 {
			return nil, specErr("mults", p, "multipliers must be in (0, 1e4]")
		}
		out = append(out, f)
	}
	return out, nil
}
