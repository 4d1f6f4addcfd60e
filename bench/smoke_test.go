package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs the whole suite — four workloads, both modes, the output
// checks, the trace and result writers — on nets and clouds small enough to
// finish in seconds. It checks that everything is reported, not what the
// numbers are.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	correct, err := runSuite(&out, options{seed: 5, seconds: 0.6, trace: -1, outDir: dir, smoke: true})
	if err != nil {
		t.Fatalf("%v\n%s", err, out.String())
	}
	if !correct {
		t.Errorf("an output check failed:\n%s", out.String())
	}

	file, err := readResultFile(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	if file.Env.GoVersion == "" || file.Env.GOMAXPROCS < 1 || file.Env.NumCPU < 1 || file.Env.CPUModel == "" ||
		file.Env.Commit == "" || file.Env.Date == "" || file.Env.Seed != 5 || file.Env.Scale != "smoke" || file.Env.DriverVersion != driverVersion {
		t.Errorf("environment header incomplete: %+v", file.Env)
	}
	if want := len(workloads) * (len(endToEnd) + len(perLayer)); len(file.Rows) != want {
		t.Errorf("%d rows in the result file, want %d", len(file.Rows), want)
	}
	value := map[string]float64{}
	for _, r := range file.Rows {
		if r.Unit == "" || r.Samples < 1 {
			t.Errorf("row %+v lacks a unit or a sample count", r)
		}
		value[r.Workload+"/"+r.Metric] = r.Value
	}
	for _, w := range workloads {
		for _, m := range endToEnd {
			if v := value[w.Name+"/"+m.Name]; !(v > 0) {
				t.Errorf("%s %s = %g: end-to-end metrics are never zero", w.Name, m.Name, v)
			}
		}
		if w.Name != "fleet_burst" {
			if v := value[w.Name+"/goodput_frac"]; v != 1 {
				t.Errorf("%s goodput_frac = %g: nothing may fail outside the burst", w.Name, v)
			}
		}
		if _, err := readTrace(filepath.Join(dir, "trace-"+w.Name+".json")); err != nil {
			t.Errorf("%s: %v", w.Name, err)
		}
	}
	// What each workload exists to exercise must have left a mark.
	for _, key := range []string{
		"pp_sn_stream/model.stage.structurize_ms", "pp_base_stream/model.stage.sample_ms",
		"pp_sn_stream/serve.engine.service_p50_ms", "pp_sn_stream/pipeline.frame_ms", "pp_sn_stream/tensor.matmul.blocked_ms",
		"dgcnn_train/train.forward_ms", "dgcnn_train/train.backward_ms", "dgcnn_train/train.optim_ms", "dgcnn_train/tensor.matmulat_ms",
		"fleet_burst/serve.engine.wait_p50_ms", "fleet_burst/serve.router.overhead_us", "fleet_burst/bench.samples",
	} {
		if !(value[key] > 0) {
			t.Errorf("%s = %g, want a measurement", key, value[key])
		}
	}

	// The last line of a run is the contract's object with every metric of
	// the mode that ran last.
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last struct {
		Correct   *bool `json:"correct"`
		Attempted int   `json:"attempted"`
		Failed    *int  `json:"failed"`
		Metrics   map[string]struct {
			Value *float64 `json:"value"`
			Unit  string   `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if last.Correct == nil || last.Failed == nil || last.Attempted < 1 || len(last.Metrics) != len(perLayer) {
		t.Errorf("last line incomplete: %s", lines[len(lines)-1])
	}
	for _, m := range perLayer {
		if got, ok := last.Metrics[m.Name]; !ok || got.Value == nil || got.Unit != m.Unit {
			t.Errorf("last line lacks %s in %s", m.Name, m.Unit)
		}
	}
}

// readTrace loads a trace file and checks what every trace must hold: spans
// that end after they start, parents recorded before their children, and the
// set-up spans.
func readTrace(path string) (*traceFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f traceFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, err
	}
	names := map[string]bool{}
	for i, s := range f.Spans {
		names[s.Name] = true
		if s.End < s.Start || s.Parent >= i {
			return nil, fmt.Errorf("%s: span %d %+v is malformed", path, i, s)
		}
	}
	for _, want := range []string{"setup", "generate"} {
		if !names[want] {
			return nil, fmt.Errorf("%s: no %q span", path, want)
		}
	}
	return &f, nil
}
