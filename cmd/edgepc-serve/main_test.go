package main

import (
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/pipeline"
)

// The fleet path (-engines > 1) wires FleetReplicas, the router, QoS and the
// degradation ladder together; this smoke test runs the whole command
// in-process at laptop scale.
func TestRunFleetSmoke(t *testing.T) {
	err := run("W1", "S+N", "", 1, 0, 1, 100*time.Microsecond, 0,
		24, 4, 1, true, true, 0, 0, 0, 1,
		0, 0, "",
		2, 3, 500, 0)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
}

// The survivability path: stall chaos injected into every engine with the
// watchdog armed, retries live on the router. The command must
// complete with the router's conservation law intact (run checks it).
func TestRunSurvivabilitySmoke(t *testing.T) {
	err := run("W1", "S+N", "", 1, 0, 1, 100*time.Microsecond, 0,
		24, 4, 1, true, false, 0, 0, 0.1, 1,
		250*time.Millisecond, 2, "",
		3, 3, 0, 0)
	if err != nil {
		t.Fatalf("survivability run: %v", err)
	}
}

// quickNet builds the exact single-replica network run(-quick W1 S+N seed 1)
// serves, for producing architecturally matching checkpoints.
func quickNet(t *testing.T) pipeline.Net {
	t.Helper()
	w, err := pipeline.WorkloadByID("W1")
	if err != nil {
		t.Fatal(err)
	}
	w.Points, w.Batch = 256, 1
	opts := pipeline.Options{Seed: 1, BaseWidth: 8, Depth: 2, Modules: 2}
	net, err := pipeline.Build(w, pipeline.SN, opts)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// -checkpoint restores weights into the shared replica parameters before
// serving; a matching checkpoint must be accepted end to end.
func TestRunCheckpointRestore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.epck")
	if err := pipeline.SaveCheckpoint(path, quickNet(t)); err != nil {
		t.Fatal(err)
	}
	err := run("W1", "S+N", "", 1, 0, 1, 100*time.Microsecond, 0,
		4, 1, 1, true, false, 0, 0, 0, 1,
		0, 0, path,
		1, 4, 0, 0)
	if err != nil {
		t.Fatalf("checkpoint run: %v", err)
	}
}

func TestRunFleetValidation(t *testing.T) {
	cases := []struct {
		name             string
		engines, tenants int
		qosRate          float64
	}{
		{"too many engines", 65, 4, 0},
		{"zero tenants", 2, 0, 0},
		{"negative qos", 2, 4, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run("W1", "S+N", "", 1, 0, 1, 100*time.Microsecond, 0,
				1, 1, 1, true, false, 0, 0, 0, 1,
				0, 0, "",
				tc.engines, tc.tenants, tc.qosRate, 0)
			if err == nil {
				t.Fatal("run accepted bad fleet flags")
			}
		})
	}
}

// Bad survivability flags must fail fast with errors that name the flag and
// the fix, before any replicas are built.
func TestRunSurvivabilityValidation(t *testing.T) {
	cases := []struct {
		name         string
		stallTimeout time.Duration
		retries      int
		checkpoint   string
		engines      int
		wantSubstr   string
	}{
		{"negative stall-timeout", -time.Millisecond, 0, "", 1, "stall-timeout"},
		{"negative retries", 0, -1, "", 2, "retries"},
		{"retries without fleet", 0, 2, "", 1, "-engines"},
		{"missing checkpoint", 0, 0, "/definitely/not/a/file.epck", 1, "checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := run("W1", "S+N", "", 1, 0, 1, 100*time.Microsecond, 0,
				1, 1, 1, true, false, 0, 0, 0, 1,
				tc.stallTimeout, tc.retries, tc.checkpoint,
				tc.engines, 4, 0, 0)
			if err == nil {
				t.Fatal("run accepted a bad survivability flag")
			}
			if !strings.Contains(err.Error(), tc.wantSubstr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSubstr)
			}
		})
	}
}
