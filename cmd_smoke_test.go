package edgepc_test

import (
	"os/exec"
	"strings"
	"testing"
)

// Smoke tests for the command-line binaries: each must build and complete a
// minimal invocation. Run via `go run` so no artifacts are left behind.
func TestCommandSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"edgepc-info", []string{"run", "./cmd/edgepc", "info", "-gen", "sphere", "-points", "500"}, "points: 500"},
		{"edgepc-sample", []string{"run", "./cmd/edgepc", "sample", "-gen", "sphere", "-points", "400", "-n", "40"}, "coverage radius"},
		{"edgepc-bench-list", []string{"run", "./cmd/edgepc-bench", "-list"}, "fig13"},
		{"edgepc-bench-quick", []string{"run", "./cmd/edgepc-bench", "-quick", "table1"}, "W6"},
		{"edgepc-serve-quick", []string{"run", "./cmd/edgepc-serve", "-quick", "-workload", "W1", "-frames", "6", "-clients", "2", "-workers", "2"}, "served 6 frames"},
		{"edgepc-serve-chaos", []string{"run", "./cmd/edgepc-serve", "-quick", "-workload", "W1", "-frames", "8", "-clients", "2", "-workers", "2", "-degrade", "-chaos-panic", "0.2"}, "degradation ladder: armed"},
		// DGCNN has no rung that relieves load: -degrade says so and serves on.
		{"edgepc-serve-degrade-no-rung", []string{"run", "./cmd/edgepc-serve", "-quick", "-workload", "W3", "-frames", "4", "-clients", "2", "-workers", "2", "-degrade"}, "serving without a ladder"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", c.args, err, out)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%v: output lacks %q:\n%s", c.args, c.want, out)
			}
		})
	}
}

// TestCommandSmokeFailures: a bad invocation must fail loudly — nonzero exit
// and a diagnostic on stderr — not serve a default.
func TestCommandSmokeFailures(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries; skipped in -short")
	}
	cases := []struct {
		name string
		args []string
		want string // substring of the diagnostic
	}{
		{"edgepc-serve-bad-workload", []string{"run", "./cmd/edgepc-serve", "-quick", "-workload", "W9"}, "unknown workload"},
		{"edgepc-serve-bad-config", []string{"run", "./cmd/edgepc-serve", "-quick", "-config", "turbo"}, "unknown config"},
		{"edgepc-serve-bad-flag", []string{"run", "./cmd/edgepc-serve", "-no-such-flag"}, "flag provided but not defined"},
		// -degrade is a boolean: the old "-degrade N" spelling would end flag
		// parsing at N and drop -chaos-panic silently.
		{"edgepc-serve-bad-degrade", []string{"run", "./cmd/edgepc-serve", "-quick", "-degrade", "2", "-chaos-panic", "0.1"}, "unexpected argument \"2\""},
		{"edgepc-loadgen-trailing-arg", []string{"run", "./cmd/edgepc-loadgen", "-quick", "extra"}, "unexpected argument \"extra\""},
		// There is one compute path and no -backend flag: a script that still
		// passes one is refused, not served the only kernel.
		{"edgepc-serve-removed-backend-flag", []string{"run", "./cmd/edgepc-serve", "-backend", "int8"}, "flag provided but not defined: -backend"},
		// A worker takes one frame per pickup: there is no micro-batch to size
		// or wait for, and a script that still tunes one is refused.
		{"edgepc-serve-removed-batch-flag", []string{"run", "./cmd/edgepc-serve", "-batch", "4"}, "flag provided but not defined: -batch"},
		{"edgepc-serve-removed-window-flag", []string{"run", "./cmd/edgepc-serve", "-window", "1ms"}, "flag provided but not defined: -window"},
		// Weights have one format, the checksummed checkpoint: -checkpoint
		// writes the final weights, and the unchecked -save stream is gone.
		{"edgepc-train-removed-save-flag", []string{"run", "./cmd/edgepc-train", "-save", "model.epnn"}, "flag provided but not defined: -save"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err == nil {
				t.Fatalf("%v: expected nonzero exit, got success:\n%s", c.args, out)
			}
			if _, ok := err.(*exec.ExitError); !ok {
				t.Fatalf("%v: did not run: %v", c.args, err)
			}
			if !strings.Contains(string(out), c.want) {
				t.Fatalf("%v: diagnostic lacks %q:\n%s", c.args, c.want, out)
			}
		})
	}
}
