package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// envHeader opens every result file: a number without it cannot be compared
// with anything.
type envHeader struct {
	Commit        string  `json:"commit"`
	GoVersion     string  `json:"go_version"`
	GOMAXPROCS    int     `json:"gomaxprocs"`
	NumCPU        int     `json:"num_cpu"`
	CPUModel      string  `json:"cpu_model"`
	Seed          int64   `json:"seed"`
	Seconds       float64 `json:"seconds"`
	Scale         string  `json:"scale"`
	DriverVersion string  `json:"driver_version"`
	Date          string  `json:"date"`
}

func newEnv(seed int64, seconds float64, sc scale) envHeader {
	env := envHeader{
		Commit:        "unknown",
		GoVersion:     runtime.Version(),
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		NumCPU:        runtime.NumCPU(),
		CPUModel:      cpuModel(),
		Seed:          seed,
		Seconds:       seconds,
		Scale:         "full",
		DriverVersion: driverVersion,
		Date:          time.Now().UTC().Format(time.RFC3339),
	}
	if sc.smoke {
		env.Scale = "smoke"
	}
	// The go tool stamps the commit into the binary when it builds inside a
	// git work tree; a bare checkout has none.
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.Commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					env.Commit += "+dirty"
				}
			}
		}
	}
	return env
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if name, value, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(value)
		}
	}
	return "unknown"
}

// row is one workload × metric value of a result file.
type row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Kind     string  `json:"kind"` // end_to_end or per_layer
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples"`
}

type resultFile struct {
	Env      envHeader `json:"env"`
	Correct  bool      `json:"correct"`
	Problems []string  `json:"problems,omitempty"`
	Rows     []row     `json:"rows"`
}

// add appends a result's metrics in table order and prints them, one line
// per metric with its unit.
func (f *resultFile) add(w io.Writer, r *result, kind string, specs []metricSpec) {
	for _, n := range r.notes {
		fmt.Fprintf(w, "# %s %s\n", r.workload, n)
	}
	for _, m := range specs {
		f.Rows = append(f.Rows, row{r.workload, m.Name, kind, r.values[m.Name], m.Unit, r.samples[m.Name]})
		fmt.Fprintf(w, "%-15s %-34s %14.4f %-9s n=%d\n", r.workload, m.Name, r.values[m.Name], m.Unit, r.samples[m.Name])
	}
	for _, p := range r.problems {
		f.Problems = append(f.Problems, r.workload+": "+p)
		fmt.Fprintf(w, "%-15s CHECK FAILED: %s\n", r.workload, p)
	}
	if !r.correct() {
		f.Correct = false
	}
}

func (f *resultFile) write(path string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readResultFile(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// contractLine is the object the benchmark driver reads from the last line
// of standard output.
func contractLine(r *result, specs []metricSpec) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct(), r.attempted, r.failed, map[string]value{}}
	for _, m := range specs {
		line.Metrics[m.Name] = value{r.values[m.Name], m.Unit}
	}
	data, err := json.Marshal(line)
	return string(data), err
}

// compare applies the end-to-end bounds to every workload × metric present
// in both files and prints one verdict per row. It returns how many rows are
// worse than their bound allows. Files taken on different machines or core
// counts are not compared: their difference is not the program's.
func compare(w io.Writer, oldF, newF *resultFile) (int, error) {
	if oldF.Env.GOMAXPROCS != newF.Env.GOMAXPROCS || oldF.Env.CPUModel != newF.Env.CPUModel {
		return 0, fmt.Errorf("bench: environments differ (GOMAXPROCS %d on %q against %d on %q): not comparable",
			oldF.Env.GOMAXPROCS, oldF.Env.CPUModel, newF.Env.GOMAXPROCS, newF.Env.CPUModel)
	}
	//edgepc:lint-ignore floateq run lengths are flag values copied into the header, equal bit for bit when the same flag was given
	if oldF.Env.DriverVersion != newF.Env.DriverVersion || oldF.Env.Scale != newF.Env.Scale || oldF.Env.Seconds != newF.Env.Seconds {
		return 0, fmt.Errorf("bench: the files were not taken with the same driver, scale and run length: not comparable")
	}
	type key struct{ workload, metric string }
	newRows := map[key]row{}
	for _, r := range newF.Rows {
		newRows[key{r.Workload, r.Metric}] = r
	}
	worse, compared := 0, 0
	for _, o := range oldF.Rows {
		n, ok := newRows[key{o.Workload, o.Metric}]
		if !ok || o.Kind != "end_to_end" {
			continue
		}
		var spec metricSpec
		for _, m := range endToEnd {
			if m.Name == o.Metric {
				spec = m
			}
		}
		if spec.Name == "" {
			continue
		}
		compared++
		// change > 0 is a move in the worse direction, as a share of old.
		change := (n.Value - o.Value) / o.Value
		if spec.Better == "higher" {
			change = -change
		}
		verdict := "within bound"
		switch {
		case change > spec.Bound:
			verdict = "worse"
			worse++
		case change < -spec.Bound:
			verdict = "better"
		}
		fmt.Fprintf(w, "%-15s %-20s %12.4f -> %12.4f %-9s %+7.1f%% (bound %.0f%%, %s is better)  %s\n",
			o.Workload, o.Metric, o.Value, n.Value, o.Unit, 100*(n.Value-o.Value)/o.Value, 100*spec.Bound, spec.Better, verdict)
	}
	if compared == 0 {
		return 0, fmt.Errorf("bench: the files share no end-to-end row")
	}
	return worse, nil
}
