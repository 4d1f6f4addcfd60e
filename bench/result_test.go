package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// handMade builds a result file with one workload's end-to-end values.
func handMade(values map[string]float64) *resultFile {
	f := &resultFile{Env: envHeader{GOMAXPROCS: 2, CPUModel: "cpu", DriverVersion: driverVersion, Scale: "full", Seconds: 20}, Correct: true}
	for _, m := range endToEnd {
		f.Rows = append(f.Rows, row{Workload: "w", Metric: m.Name, Kind: "end_to_end", Value: values[m.Name], Unit: m.Unit})
	}
	f.Rows = append(f.Rows, row{Workload: "w", Metric: "pipeline.frame_ms", Kind: "per_layer", Value: 1})
	return f
}

var baseValues = map[string]float64{
	"setup_s": 2, "throughput_fps": 100, "latency_p50_ms": 10, "latency_p90_ms": 20,
	"goodput_frac": 1, "full_fidelity_frac": 1, "heap_mb": 50, "allocs_per_op": 300,
}

// worsened returns baseValues with each named metric moved in its worse
// direction by its bound plus the given share of the old value (negative
// shares stay inside the bound or improve).
func worsened(past map[string]float64) map[string]float64 {
	values := map[string]float64{}
	for _, m := range endToEnd {
		values[m.Name] = baseValues[m.Name]
		extra, ok := past[m.Name]
		if !ok {
			continue
		}
		change := m.Bound + extra
		if m.Better == "higher" {
			change = -change
		}
		values[m.Name] *= 1 + change
	}
	return values
}

func TestCompareVerdicts(t *testing.T) {
	changed := worsened(map[string]float64{
		"throughput_fps":     0.01,  // a higher-is-better metric just past its bound
		"allocs_per_op":      0.003, // a lower-is-better one just past its bound
		"latency_p50_ms":     -0.01, // just inside
		"full_fidelity_frac": -0.01,
		"latency_p90_ms":     -0.6, // better by more than the bound
	})
	var out bytes.Buffer
	worse, err := compare(&out, handMade(baseValues), handMade(changed))
	if err != nil {
		t.Fatal(err)
	}
	if worse != 2 {
		t.Errorf("%d rows worse, want 2\n%s", worse, out.String())
	}
	verdict := map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		verdict[strings.Fields(line)[1]] = strings.TrimSpace(line[strings.LastIndex(line, ")")+1:])
	}
	for metric, want := range map[string]string{
		"throughput_fps": "worse", "allocs_per_op": "worse",
		"latency_p50_ms": "within bound", "full_fidelity_frac": "within bound", "setup_s": "within bound",
		"latency_p90_ms": "better",
	} {
		if verdict[metric] != want {
			t.Errorf("%s: line ends %q, want %q", metric, verdict[metric], want)
		}
	}
	if _, ok := verdict["pipeline.frame_ms"]; ok {
		t.Error("a per-layer row was given a verdict: only end-to-end metrics have bounds")
	}
	if worse, err := compare(&out, handMade(baseValues), handMade(baseValues)); err != nil || worse != 0 {
		t.Errorf("a file against itself: %d worse, err %v", worse, err)
	}
}

func TestCompareRefusesOtherEnvironments(t *testing.T) {
	for name, edit := range map[string]func(*envHeader){
		"GOMAXPROCS": func(e *envHeader) { e.GOMAXPROCS = 8 },
		"CPU model":  func(e *envHeader) { e.CPUModel = "another" },
		"run length": func(e *envHeader) { e.Seconds = 5 },
		"scale":      func(e *envHeader) { e.Scale = "smoke" },
	} {
		other := handMade(baseValues)
		edit(&other.Env)
		if _, err := compare(&bytes.Buffer{}, handMade(baseValues), other); err == nil {
			t.Errorf("files that differ in %s were compared", name)
		}
	}
}

func TestCompareFilesExitCodes(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, f *resultFile) string {
		path := filepath.Join(dir, name)
		if err := f.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	slower := worsened(map[string]float64{"latency_p50_ms": 0.05})
	oldPath, samePath, slowPath := write("old.json", handMade(baseValues)), write("same.json", handMade(baseValues)), write("slow.json", handMade(slower))
	var out bytes.Buffer
	if code := compareFiles(&out, []string{oldPath, samePath}); code != 0 {
		t.Errorf("equal files: exit %d\n%s", code, out.String())
	}
	if code := compareFiles(&out, []string{oldPath, slowPath}); code != 1 {
		t.Errorf("a worse row: exit %d, want 1", code)
	}
	if code := compareFiles(&out, []string{oldPath}); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
	if code := compareFiles(&out, []string{oldPath, filepath.Join(dir, "missing.json")}); code != 2 {
		t.Errorf("a missing file: exit %d, want 2", code)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json, which the benchmark's users read,
// equal to the tables the program measures by.
func TestBenchmarkJSON(t *testing.T) {
	if err := checkNames(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the file, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := spec.Workloads[i]; got.Name != w.Name || got.Why != w.Why {
			t.Errorf("workload %d: file has %q / %q, program has %q / %q", i, got.Name, got.Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	same := func(kind string, file, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Fatalf("%s: %d metrics in the file, %d in the program", kind, len(file), len(prog))
		}
		for i := range prog {
			if file[i] != prog[i] {
				t.Errorf("%s metric %d: file has %+v, program has %+v", kind, i, file[i], prog[i])
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	hasSetup := false
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" || spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", spec.Paths, spec.RunSeconds)
	}
}
