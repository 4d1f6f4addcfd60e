// Command edgepc-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	edgepc-bench [-quick] [-seed N] [-backend NAME] [experiment ...]
//	edgepc-bench -list
//	edgepc-bench -list-backends
//
// With no experiment arguments it runs the full suite in order. Each
// experiment prints its table plus a note comparing the measured shape with
// the numbers the paper reports; EXPERIMENTS.md records a reference run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
	"repro/internal/tensor"
)

func main() {
	quick := flag.Bool("quick", false, "run reduced-size workloads (seconds instead of minutes)")
	seed := flag.Int64("seed", 1, "seed for all synthetic data")
	backend := flag.String("backend", "", "tensor compute backend for model inference: naive | blocked | int8 (default "+tensor.DefaultBackend+")")
	list := flag.Bool("list", false, "list available experiments and exit")
	listBackends := flag.Bool("list-backends", false, "list available compute backends and exit")
	stages := flag.Bool("stages", false, "print the per-stage span breakdown (shorthand for the 'stages' experiment)")
	jsonOut := flag.Bool("json", false, "emit results as a JSON array instead of tables")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: edgepc-bench [-quick] [-seed N] [experiment ...]\n\n")
		fmt.Fprintf(os.Stderr, "Regenerates the EdgePC paper's tables and figures.\n\nFlags:\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-16s %s\n", e.ID, e.Title)
		}
		return
	}
	if *listBackends {
		for _, name := range tensor.BackendNames() {
			fmt.Println(name)
		}
		return
	}
	// Fail a typo'd -backend before any experiment runs; the name itself is
	// resolved per network inside pipeline.Build.
	if _, err := tensor.NewBackend(*backend); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	var todo []experiments.Experiment
	if *stages {
		e, err := experiments.ByID("stages")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		todo = append(todo, e)
	}
	if len(todo) > 0 {
		// -stages pins the run; positional experiments still append.
		for _, id := range flag.Args() {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				fmt.Fprintln(os.Stderr, "use -list to see available experiments")
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	} else if flag.NArg() == 0 {
		todo = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, err := experiments.ByID(id)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				fmt.Fprintln(os.Stderr, "use -list to see available experiments")
				os.Exit(2)
			}
			todo = append(todo, e)
		}
	}

	cfg := experiments.RunConfig{Quick: *quick, Seed: *seed, Backend: *backend}
	type jsonResult struct {
		ID     string `json:"id"`
		Title  string `json:"title"`
		Table  string `json:"table"`
		Notes  string `json:"notes"`
		Millis int64  `json:"elapsed_ms"`
		Error  string `json:"error,omitempty"`
	}
	var collected []jsonResult
	failed := 0
	for _, e := range todo {
		start := time.Now()
		res, err := e.Run(cfg)
		elapsed := time.Since(start)
		if err != nil {
			failed++
			if *jsonOut {
				collected = append(collected, jsonResult{ID: e.ID, Title: e.Title, Millis: elapsed.Milliseconds(), Error: err.Error()})
			} else {
				fmt.Fprintf(os.Stderr, "%s: %v\n", e.ID, err)
			}
			continue
		}
		if *jsonOut {
			collected = append(collected, jsonResult{
				ID: res.ID, Title: res.Title, Table: res.Table, Notes: res.Notes,
				Millis: elapsed.Milliseconds(),
			})
			continue
		}
		fmt.Printf("=== %s ===\n%s\n", res.Title, res.Table)
		if res.Notes != "" {
			fmt.Printf("note: %s\n", res.Notes)
		}
		fmt.Printf("(%s in %v)\n\n", e.ID, elapsed.Round(time.Millisecond))
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(collected); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		os.Exit(1)
	}
}
