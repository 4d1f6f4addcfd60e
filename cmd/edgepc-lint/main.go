// Command edgepc-lint runs the repo's static-analysis suite (internal/lint)
// over module packages and prints file:line:col: [analyzer] diagnostics. The
// suite is three analyzers guarding the zero-allocation hot path and float
// comparisons: hotpathalloc, workspacepair and floateq (-list describes each).
//
// Usage:
//
//	go run ./cmd/edgepc-lint ./...
//	go run ./cmd/edgepc-lint ./internal/tensor ./internal/nn/...
//	go run ./cmd/edgepc-lint -json ./...
//	go build -gcflags='-m -m' ./... 2>esc.txt && go run ./cmd/edgepc-lint -escapes esc.txt
//
// With -json each diagnostic is one JSON object per line on stdout
// ({"file","line","col","analyzer","message"}); the human summary stays on
// stderr. With -escapes the command runs the escape gate instead of the
// analyzer suite: it parses `go build -gcflags='-m -m'` output from the
// given file ("-" for stdin) and compares the heap escapes attributed to
// //edgepc:hotpath functions against the committed baseline
// (scripts/escape_baseline.txt, overridable with -escape-baseline);
// -escape-write regenerates the baseline instead of checking it. The usual
// entry point for both directions is scripts/escape_gate.sh.
//
// Exit status, in both modes: 0 when clean, 1 on findings (lint diagnostics,
// or new/stale escape-gate entries), 2 on load/parse errors. The suite and
// the //edgepc:hotpath and //edgepc:lint-ignore directive contracts are
// documented in DESIGN.md §7.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/lint"
	"repro/internal/lint/escapegate"
)

func main() {
	list := flag.Bool("list", false, "list the analyzers and exit")
	jsonOut := flag.Bool("json", false, "emit one JSON diagnostic object per line instead of text")
	escapes := flag.String("escapes", "", "run the escape gate over `go build -gcflags='-m -m'` output in this file (- for stdin)")
	escapeBaseline := flag.String("escape-baseline", "scripts/escape_baseline.txt", "escape-gate baseline path, relative to the module root")
	escapeWrite := flag.Bool("escape-write", false, "rewrite the escape-gate baseline from the current escapes instead of checking")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: edgepc-lint [-list] [-json] [packages]\n       edgepc-lint -escapes <file|-> [-escape-baseline path] [-escape-write]\n\npackages default to ./... relative to the module root; -list describes the three analyzers\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	analyzers := lint.All()
	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-16s %s\n", a.Name, a.Doc)
		}
		return
	}

	wd, err := os.Getwd()
	if err != nil {
		fatal(err)
	}
	root, err := lint.FindModuleRoot(wd)
	if err != nil {
		fatal(err)
	}

	if *escapes != "" {
		runEscapeGate(root, *escapes, *escapeBaseline, *escapeWrite)
		return
	}

	loader, err := lint.NewLoader(root)
	if err != nil {
		fatal(err)
	}
	targets, err := loader.LoadPatterns(flag.Args())
	if err != nil {
		fatal(err)
	}

	diags := lint.Run(loader, targets, analyzers)
	for _, d := range diags {
		file := d.Pos.Filename
		if rel, err := filepath.Rel(wd, file); err == nil && !strings.HasPrefix(rel, "..") {
			file = rel
		}
		if *jsonOut {
			printJSON(file, d)
		} else {
			fmt.Printf("%s:%d:%d: [%s] %s\n", file, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "edgepc-lint: %d finding(s) in %d package(s)\n", len(diags), len(targets))
		os.Exit(1)
	}
	if !*jsonOut {
		fmt.Printf("edgepc-lint: %d package(s) clean\n", len(targets))
	}
}

// jsonDiag is the machine-readable diagnostic shape: one object per line.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func printJSON(file string, d lint.Diagnostic) {
	enc, err := json.Marshal(jsonDiag{File: file, Line: d.Pos.Line, Col: d.Pos.Column, Analyzer: d.Analyzer, Message: d.Message})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(enc))
}

// runEscapeGate parses compiler escape diagnostics from src and checks (or
// rewrites) the hotpath escape baseline.
func runEscapeGate(root, src, baselineRel string, write bool) {
	var in io.Reader
	if src == "-" {
		in = os.Stdin
	} else {
		f, err := os.Open(src)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		in = f
	}
	escs, err := escapegate.ParseDiagnostics(in)
	if err != nil {
		fatal(err)
	}
	regions, err := escapegate.HotpathRegions(root)
	if err != nil {
		fatal(err)
	}
	current := escapegate.Summarize(escapegate.Assign(regions, escs))
	baselinePath := baselineRel
	if !filepath.IsAbs(baselinePath) {
		baselinePath = filepath.Join(root, baselinePath)
	}
	if write {
		if err := escapegate.WriteBaseline(baselinePath, current); err != nil {
			fatal(err)
		}
		fmt.Printf("edgepc-lint: escape baseline written: %d class(es) across %d hotpath function(s)\n", len(current), len(regions))
		return
	}
	baseline, err := escapegate.LoadBaseline(baselinePath)
	if err != nil {
		fatal(err)
	}
	violations := escapegate.Check(current, baseline)
	for _, v := range violations {
		fmt.Printf("%s: %s: %q ×%d: %s\n", v.Entry.File, v.Entry.Func, v.Entry.Message, v.Entry.Count, v.Why)
	}
	if len(violations) > 0 {
		fmt.Fprintf(os.Stderr, "edgepc-lint: escape gate: %d violation(s) against %s\n", len(violations), baselineRel)
		os.Exit(1)
	}
	fmt.Printf("edgepc-lint: escape gate clean: %d hotpath function(s), %d baselined escape class(es)\n", len(regions), len(current))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "edgepc-lint:", err)
	os.Exit(2)
}
