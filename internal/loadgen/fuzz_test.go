package loadgen

import (
	"errors"
	"testing"
)

// FuzzLoadgenConfig drives attacker-shaped scenario strings through the
// spec and multiplier parsers: they must never panic, every rejection must
// be a typed *SpecError naming a field, and every accepted spec must be
// runnable (Validate passes — Run trusts that contract).
func FuzzLoadgenConfig(f *testing.F) {
	for _, s := range []string{
		"",
		"seed=7;engines=3",
		"duration=400ms;rate=500;alpha=1.5",
		"mix=0.2,0.5,0.3;svc=2ms,1ms,700us",
		"ramp=0:1,0.5:3,1:0.2;zipf=1.1;tenants=1000",
		"qos-rate=50;qos-burst=10;deadline=5ms",
		"queue=12;workers=3;engines=2;svc=1ms,400us",
		"rate=NaN",
		"rate=+Inf;alpha=-1",
		"unknown=1",
		";;;",
		"seed=;=x;ramp=::",
		"svc=9999999h",
		"rate=1e7;duration=1h",
		"mix=1e308,1e308,1e308",
		"stall-frac=0.1;stall-timeout=3ms;retries=2",
		"stall-frac=2;retries=-1",
		"stall-frac=NaN;stall-timeout=99h",
	} {
		f.Add(s, "1,10,100")
	}
	f.Fuzz(func(t *testing.T, scenario, mults string) {
		spec, err := ParseSpec(scenario, Quick())
		if err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseSpec(%q): untyped error %T %v", scenario, err, err)
			}
			if se.Field == "" || se.Reason == "" {
				t.Fatalf("ParseSpec(%q): empty SpecError %+v", scenario, se)
			}
		} else if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec Validate rejects: %v", scenario, verr)
		}
		if _, err := ParseMults(mults); err != nil {
			var se *SpecError
			if !errors.As(err, &se) {
				t.Fatalf("ParseMults(%q): untyped error %T %v", mults, err, err)
			}
		}
	})
}
