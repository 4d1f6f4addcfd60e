// Package lint is edgepc-lint: a repo-specific static-analysis suite built on
// the standard library's go/ast, go/parser, and go/types (no external
// dependencies, matching the module's pure-Go constraint).
//
// The analyzers enforce the sharp-edged invariants the zero-allocation
// inference hot path relies on — invariants the compiler cannot check and
// runtime panics only catch when the offending path executes:
//
//   - hotpathalloc: functions annotated //edgepc:hotpath (and everything they
//     statically call within the module) must not call the allocating tensor
//     wrappers, and the annotated functions themselves must not make or grow
//     slices.
//   - workspacepair: tensor.Workspace buffers must be Put back or handed to
//     the caller, never parked in a struct field or silently dropped.
//   - floateq: ==/!= on floating-point operands (exact-zero sentinel and
//     sparsity-skip comparisons are exempt).
//
// Races on captured variables, *Into aliasing, panic containment on
// goroutines, lock pairing, WaitGroup balance, channel lifetime and context
// threading have no analyzer: the -race stages, the kernels' runtime checks,
// go vet and the internal/serve tests cover them (DESIGN.md §7 has the
// mutation tables).
//
// The escapegate subpackage adds a compiler-backed static allocation gate:
// it parses `go build -gcflags='-m -m'` output and fails when a
// //edgepc:hotpath function gains a heap escape (see scripts/escape_gate.sh).
//
// A finding is suppressed by the directive
//
//	//edgepc:lint-ignore <analyzer> <reason>
//
// placed on the reported line or on the line directly above it. The reason is
// mandatory: suppressions double as documentation of every deliberate
// exception to an invariant. See DESIGN.md §7.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Directives recognized in comments.
const (
	// HotPathDirective marks a function (via its doc comment) as part of the
	// steady-state inference hot path checked by hotpathalloc.
	HotPathDirective = "//edgepc:hotpath"
	// IgnoreDirective suppresses one analyzer on one line:
	// //edgepc:lint-ignore <analyzer> <reason>.
	IgnoreDirective = "//edgepc:lint-ignore"
)

// Diagnostic is one finding, printed as file:line:col: [analyzer] message.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String formats the diagnostic in the driver's output form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named check over a set of packages.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Pass carries everything one analyzer run needs. Targets are the packages
// diagnostics may be reported against; Module additionally holds every
// in-module dependency that was loaded, so whole-module analyses (the
// hotpathalloc call graph) can traverse beyond the lint targets.
type Pass struct {
	Fset    *token.FileSet
	ModPath string
	Targets []*Package
	Module  []*Package

	analyzer    *Analyzer
	targetFiles map[string]bool
	diags       *[]Diagnostic
}

// Reportf records a finding at pos. Findings outside the target packages are
// dropped: an analyzer may discover a violation while traversing a dependency
// that is not being linted.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if !p.targetFiles[position.Filename] {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{Pos: position, Analyzer: p.analyzer.Name, Message: fmt.Sprintf(format, args...)})
}

// All returns the full analyzer suite in reporting order.
func All() []*Analyzer {
	return []*Analyzer{HotPathAlloc, WorkspacePair, FloatEq}
}

// Run executes the analyzers over the target packages and returns the
// surviving diagnostics sorted by position. The loader supplies the shared
// FileSet, the module path, and every module package loaded so far, so
// whole-module analyses (the hotpathalloc call graph) can traverse beyond the
// lint targets. Diagnostics on lines covered by a matching
// //edgepc:lint-ignore directive are dropped; malformed or unknown-analyzer
// directives are themselves reported so a typo cannot silently disable a
// suppression.
func Run(loader *Loader, targets []*Package, analyzers []*Analyzer) []Diagnostic {
	fset := loader.Fset
	targetFiles := map[string]bool{}
	for _, pkg := range targets {
		for _, f := range pkg.Files {
			targetFiles[fset.Position(f.Pos()).Filename] = true
		}
	}
	var diags []Diagnostic
	module := loader.Module()
	for _, a := range analyzers {
		pass := &Pass{
			Fset:        fset,
			ModPath:     loader.ModulePath(),
			Targets:     targets,
			Module:      module,
			analyzer:    a,
			targetFiles: targetFiles,
			diags:       &diags,
		}
		a.Run(pass)
	}
	ignores, malformed := collectIgnores(fset, targets, analyzers)
	kept := diags[:0]
	for _, d := range diags {
		key := ignoreKey{file: d.Pos.Filename, analyzer: d.Analyzer}
		if ig := ignores[key]; ig != nil {
			if use, ok := ig[d.Pos.Line]; ok {
				use.used = true
				continue
			}
			if use, ok := ig[d.Pos.Line-1]; ok {
				use.used = true
				continue
			}
		}
		kept = append(kept, d)
	}
	diags = append(kept, malformed...)
	// A suppression that matched no finding is dead documentation: either the
	// violation was fixed (delete the directive) or the directive is on the
	// wrong line (move it).
	for key, ig := range ignores {
		for _, use := range ig {
			if !use.used {
				diags = append(diags, Diagnostic{
					Pos:      use.pos,
					Analyzer: "lint",
					Message:  fmt.Sprintf("stale lint-ignore: no %s finding on this line or the next; delete the suppression", key.analyzer),
				})
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags
}

type ignoreKey struct {
	file     string
	analyzer string
}

// ignoreUse tracks one well-formed suppression directive: its position for
// stale reporting and whether any diagnostic actually matched it.
type ignoreUse struct {
	pos  token.Position
	used bool
}

// collectIgnores gathers //edgepc:lint-ignore directives from the target
// packages, keyed by (file, analyzer) → directive line → usage record.
// Directives missing an analyzer name, missing a reason, or naming an unknown
// analyzer are returned as diagnostics instead of being honored.
func collectIgnores(fset *token.FileSet, targets []*Package, analyzers []*Analyzer) (map[ignoreKey]map[int]*ignoreUse, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	ignores := map[ignoreKey]map[int]*ignoreUse{}
	var malformed []Diagnostic
	for _, pkg := range targets {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					rest, ok := strings.CutPrefix(c.Text, IgnoreDirective)
					if !ok {
						continue
					}
					pos := fset.Position(c.Pos())
					fields := strings.Fields(rest)
					switch {
					case len(fields) == 0:
						malformed = append(malformed, Diagnostic{Pos: pos, Analyzer: "lint", Message: "lint-ignore directive names no analyzer"})
					case !known[fields[0]]:
						malformed = append(malformed, Diagnostic{Pos: pos, Analyzer: "lint", Message: fmt.Sprintf("lint-ignore names unknown analyzer %q", fields[0])})
					case len(fields) == 1:
						malformed = append(malformed, Diagnostic{Pos: pos, Analyzer: "lint", Message: fmt.Sprintf("lint-ignore %s gives no reason; suppressions must be documented", fields[0])})
					default:
						key := ignoreKey{file: pos.Filename, analyzer: fields[0]}
						if ignores[key] == nil {
							ignores[key] = map[int]*ignoreUse{}
						}
						ignores[key][pos.Line] = &ignoreUse{pos: pos}
					}
				}
			}
		}
	}
	return ignores, malformed
}

// hasDirective reports whether a function's doc comment carries the given
// directive (alone on a line, optionally followed by explanatory text).
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if c.Text == directive || strings.HasPrefix(c.Text, directive+" ") {
			return true
		}
	}
	return false
}
