package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// capture runs fn with os.Stdout redirected to a pipe and returns what it
// printed. The harness prints its count lines to stdout; the smoke tests
// assert on those instead of re-running the simulation.
func capture(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = w
	done := make(chan string, 1)
	go func() {
		b, _ := io.ReadAll(r)
		done <- string(b)
	}()
	runErr := fn()
	os.Stdout = old
	w.Close()
	out := <-done
	r.Close()
	return out, runErr
}

func TestRunQuickSmoke(t *testing.T) {
	out, err := capture(t, func() error {
		return run("", 0, true, "1,10", "1,5", "", false, "W1", "S+N", 3)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if n := strings.Count(out, "scenario mult="); n != 2 {
		t.Fatalf("got %d scenario count lines, want 2:\n%s", n, out)
	}
	if !strings.Contains(out, "crossover (shed vs degrade):") {
		t.Fatalf("no crossover table:\n%s", out)
	}
}

func TestRunWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bench.json")
	_, err := capture(t, func() error {
		return run("seed=9;duration=200ms", 0, true, "1", "1,2", path, false, "W1", "S+N", 3)
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Bench     string            `json:"bench"`
		Spec      map[string]any    `json:"spec"`
		Scenarios []json.RawMessage `json:"scenarios"`
		Crossover []json.RawMessage `json:"crossover"`
	}
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if rep.Bench != "serve_fleet" {
		t.Fatalf("bench = %q", rep.Bench)
	}
	if len(rep.Scenarios) != 1 || len(rep.Crossover) != 2 {
		t.Fatalf("sections: %d scenarios, %d crossover", len(rep.Scenarios), len(rep.Crossover))
	}
	if rep.Spec["seed"] != float64(9) {
		t.Fatalf("spec seed = %v, want the -scenario override", rep.Spec["seed"])
	}
}

func TestRunSeedFlagOverridesSpec(t *testing.T) {
	o1, err := capture(t, func() error { return run("seed=3", 0, true, "1", "1", "", false, "W1", "S+N", 3) })
	if err != nil {
		t.Fatal(err)
	}
	o2, err := capture(t, func() error { return run("seed=3", 41, true, "1", "1", "", false, "W1", "S+N", 3) })
	if err != nil {
		t.Fatal(err)
	}
	if line(o1, "scenario mult=") == line(o2, "scenario mult=") {
		t.Fatal("-seed override did not change the count line")
	}
}

func line(out, prefix string) string {
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, prefix) {
			return l
		}
	}
	return ""
}

func TestRunErrors(t *testing.T) {
	cases := []struct {
		name string
		fn   func() error
	}{
		{"bad scenario key", func() error { return run("bogus=1", 0, true, "1", "1", "", false, "W1", "S+N", 3) }},
		{"bad scenario value", func() error { return run("rate=NaN", 0, true, "1", "1", "", false, "W1", "S+N", 3) }},
		{"bad mults", func() error { return run("", 0, true, "1,zero", "1", "", false, "W1", "S+N", 3) }},
		{"bad crossover", func() error { return run("", 0, true, "1", "-2", "", false, "W1", "S+N", 3) }},
		{"bad workload", func() error { return run("", 0, true, "1", "1", "", true, "W99", "S+N", 3) }},
		{"bad config", func() error { return run("", 0, true, "1", "1", "", true, "W1", "turbo", 3) }},
		{"bad cal-frames", func() error { return run("", 0, true, "1", "1", "", true, "W1", "S+N", 0) }},
		{"calibrate with svc override", func() error { return run("svc=1ms,500us", 0, true, "1", "1", "", true, "W1", "S+N", 1) }},
		{"unwritable out", func() error {
			return run("", 0, true, "1", "1", filepath.Join(string(os.PathSeparator), "no-such-dir", "x.json"), false, "W1", "S+N", 3)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := capture(t, tc.fn); err == nil {
				t.Fatal("run accepted bad input")
			}
		})
	}
}

func TestCalibratedQuickRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a real (if tiny) model")
	}
	out, err := capture(t, func() error {
		return run("duration=100ms", 0, true, "1", "1", "", true, "W1", "S+N", 2)
	})
	if err != nil {
		t.Fatalf("calibrated run: %v", err)
	}
	if !strings.Contains(out, "calibrated W1 S+N: svc/tier") {
		t.Fatalf("no calibration line:\n%s", out)
	}
}
