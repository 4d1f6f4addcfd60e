// Package experiments regenerates every table and figure of the paper's
// evaluation (§3 Fig. 3, §4 Figs. 5–6, §5 Figs. 9/11 and the §5.4 studies,
// §6 Table 1, Figs. 13–15, the §6.4 comparisons and Table 2). Each runner
// produces a formatted table plus commentary comparing the measured shape
// against the paper's reported numbers; cmd/edgepc-bench prints them and
// EXPERIMENTS.md records a reference run.
package experiments

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"repro/internal/edgesim"
)

// RunConfig parameterizes an experiment run.
type RunConfig struct {
	// Device prices stage traces; defaults to the Jetson AGX Xavier model.
	Device *edgesim.Device
	// Quick shrinks workloads so the whole suite finishes in seconds —
	// used by tests; the bench binary runs full scale.
	Quick bool
	// Seed drives all synthetic data.
	Seed int64
}

func (c *RunConfig) defaults() {
	if c.Device == nil {
		c.Device = edgesim.JetsonAGXXavier()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// Result is one regenerated table/figure.
type Result struct {
	ID    string
	Title string
	Table string // formatted rows, ready to print
	Notes string // paper expectation vs. this run
}

// Runner regenerates one experiment.
type Runner func(cfg RunConfig) (*Result, error)

// Experiment pairs a runner with its identity.
type Experiment struct {
	ID    string
	Title string
	Run   Runner
}

// registry is populated by the experiment files' init functions.
var registry []Experiment

func register(id, title string, run Runner) {
	registry = append(registry, Experiment{ID: id, Title: title, Run: run})
}

// All returns every registered experiment in a stable curated order.
func All() []Experiment {
	order := map[string]int{}
	for i, id := range []string{
		"table1", "fig3", "fig5", "fig6", "fig9", "fig11",
		"fig13", "fig14", "fig15a", "fig15b",
		"sec541", "sec542", "memory", "sec64", "table2",
		"ablation-bits", "ablation-reuse", "ablation-sort", "compression", "devices", "fps", "stages", "validate",
	} {
		order[id] = i
	}
	out := append([]Experiment(nil), registry...)
	sort.SliceStable(out, func(a, b int) bool {
		oa, oka := order[out[a].ID]
		ob, okb := order[out[b].ID]
		if oka && okb {
			return oa < ob
		}
		if oka != okb {
			return oka
		}
		return out[a].ID < out[b].ID
	})
	return out
}

// ByID finds an experiment.
func ByID(id string) (Experiment, error) {
	for _, e := range registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// table renders rows with aligned columns. The first row is the header.
func table(rows [][]string) string {
	var buf bytes.Buffer
	w := tabwriter.NewWriter(&buf, 2, 4, 2, ' ', 0)
	for i, row := range rows {
		fmt.Fprintln(w, strings.Join(row, "\t"))
		if i == 0 {
			under := make([]string, len(row))
			for j, h := range row {
				under[j] = strings.Repeat("-", len(h))
			}
			fmt.Fprintln(w, strings.Join(under, "\t"))
		}
	}
	w.Flush()
	return buf.String()
}

// ms formats a duration in milliseconds.
func ms(d time.Duration) string {
	return fmt.Sprintf("%.3f", float64(d)/float64(time.Millisecond))
}

// ratio formats a speedup.
func ratio(base, opt time.Duration) string {
	if opt <= 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(opt))
}

func pct(v float64) string {
	return fmt.Sprintf("%.1f%%", 100*v)
}
