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
		{"edgepc-bench-list-backends", []string{"run", "./cmd/edgepc-bench", "-list-backends"}, "int8"},
		{"edgepc-bench-quick", []string{"run", "./cmd/edgepc-bench", "-quick", "table1"}, "W6"},
		{"edgepc-bench-backend", []string{"run", "./cmd/edgepc-bench", "-quick", "-backend", "blocked", "fig3"}, "W6"},
		{"edgepc-serve-quick", []string{"run", "./cmd/edgepc-serve", "-quick", "-workload", "W1", "-frames", "6", "-clients", "2", "-workers", "2"}, "served 6 frames"},
		{"edgepc-serve-backend", []string{"run", "./cmd/edgepc-serve", "-quick", "-backend", "int8", "-workload", "W1", "-frames", "6", "-clients", "2", "-workers", "2"}, "compute backend: int8"},
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
		// A typo'd backend name must name the registered set, mirroring the
		// RegisterArch error style.
		{"edgepc-serve-bad-backend", []string{"run", "./cmd/edgepc-serve", "-quick", "-backend", "fp16"}, "no backend registered for \"fp16\" (registered: blocked, int8, naive)"},
		{"edgepc-bench-bad-backend", []string{"run", "./cmd/edgepc-bench", "-quick", "-backend", "fp16", "fig3"}, "no backend registered for \"fp16\" (registered: blocked, int8, naive)"},
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
