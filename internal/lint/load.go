package lint

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadErrorKind classifies loader failures so callers (and tests) can tell a
// broken input from a misconfigured invocation without string matching.
type LoadErrorKind string

const (
	// LoadParse: a source file does not parse.
	LoadParse LoadErrorKind = "parse"
	// LoadType: the package parses but does not type-check.
	LoadType LoadErrorKind = "type"
	// LoadOutsideModule: the requested directory is not inside the module.
	LoadOutsideModule LoadErrorKind = "outside-module"
	// LoadNoFiles: the directory holds no non-test Go files.
	LoadNoFiles LoadErrorKind = "no-files"
	// LoadIO: the directory cannot be read.
	LoadIO LoadErrorKind = "io"
)

// LoadError is the typed error every loader failure surfaces: which package
// (or directory) failed, how, and the underlying cause. The loader returns
// errors, never panics, on broken input — a syntax error, a type error, or a
// path outside the module all come back as *LoadError.
type LoadError struct {
	Path string // import path, or directory when no path could be derived
	Kind LoadErrorKind
	Err  error
}

func (e *LoadError) Error() string {
	return fmt.Sprintf("lint: loading %s (%s): %v", e.Path, e.Kind, e.Err)
}

func (e *LoadError) Unwrap() error { return e.Err }

// Package is one type-checked module package: its syntax trees plus the type
// information the analyzers consult. Only packages inside this module are
// loaded from source; standard-library dependencies are imported through the
// stdlib source importer and carry no syntax.
type Package struct {
	Path  string // import path, e.g. repro/internal/tensor
	Dir   string // absolute directory
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Loader parses and type-checks packages of a single module using only the
// standard library (go/parser + go/types + go/importer): module-internal
// imports are resolved from source, everything else is delegated to the
// GOROOT source importer. All packages share one FileSet so positions are
// comparable across the whole module.
type Loader struct {
	Fset    *token.FileSet
	root    string // module root (directory containing go.mod)
	modPath string // module path from go.mod
	std     types.Importer
	pkgs    map[string]*Package // loaded module packages, by import path
}

// NewLoader creates a loader for the module rooted at root (the directory
// holding go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("lint: %s is not a module root: %w", root, err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", root)
	}
	fset := token.NewFileSet()
	return &Loader{
		Fset:    fset,
		root:    abs,
		modPath: modPath,
		std:     importer.ForCompiler(fset, "source", nil),
		pkgs:    map[string]*Package{},
	}, nil
}

// ModulePath returns the module path declared in go.mod.
func (l *Loader) ModulePath() string { return l.modPath }

// Root returns the absolute module root directory.
func (l *Loader) Root() string { return l.root }

// Module returns every module package loaded so far (targets and their
// in-module dependencies), in deterministic path order.
func (l *Loader) Module() []*Package {
	out := make([]*Package, 0, len(l.pkgs))
	for _, p := range l.pkgs {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out
}

// importPathFor maps a directory inside the module to its import path.
func (l *Loader) importPathFor(dir string) (string, error) {
	rel, err := filepath.Rel(l.root, dir)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.modPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", &LoadError{Path: dir, Kind: LoadOutsideModule, Err: fmt.Errorf("%s is outside module %s", dir, l.root)}
	}
	return l.modPath + "/" + filepath.ToSlash(rel), nil
}

// dirFor maps a module import path back to its directory.
func (l *Loader) dirFor(path string) string {
	if path == l.modPath {
		return l.root
	}
	return filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath+"/")))
}

// LoadDir parses and type-checks the package in dir (non-test files only).
func (l *Loader) LoadDir(dir string) (*Package, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	path, err := l.importPathFor(abs)
	if err != nil {
		return nil, err
	}
	return l.load(path, abs)
}

func (l *Loader) load(path, dir string) (*Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	names, err := goFiles(dir)
	if err != nil {
		return nil, &LoadError{Path: path, Kind: LoadIO, Err: err}
	}
	if len(names) == 0 {
		return nil, &LoadError{Path: path, Kind: LoadNoFiles, Err: fmt.Errorf("no Go files in %s", dir)}
	}
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, n), nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, &LoadError{Path: path, Kind: LoadParse, Err: err}
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, &LoadError{Path: path, Kind: LoadType, Err: err}
	}
	p := &Package{Path: path, Dir: dir, Files: files, Types: tpkg, Info: info}
	l.pkgs[path] = p
	return p, nil
}

// Import implements types.Importer: module-internal paths load from source,
// everything else goes to the standard-library source importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.modPath || strings.HasPrefix(path, l.modPath+"/") {
		p, err := l.load(path, l.dirFor(path))
		if err != nil {
			return nil, err
		}
		return p.Types, nil
	}
	return l.std.Import(path)
}

// LoadPatterns expands go-style package patterns relative to the module root
// and loads each matched package. Supported forms: "./...", "dir/...", and
// plain directories ("./internal/tensor", "internal/tensor"). The recursive
// walk skips testdata, hidden, and vendor directories; naming such a
// directory explicitly still loads it (that is how the fixture smoke test
// lints a testdata package).
func (l *Loader) LoadPatterns(patterns []string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	var out []*Package
	seen := map[string]bool{}
	add := func(dir string) error {
		p, err := l.LoadDir(dir)
		if err != nil {
			return err
		}
		if !seen[p.Path] {
			seen[p.Path] = true
			out = append(out, p)
		}
		return nil
	}
	for _, pat := range patterns {
		recursive := false
		if rest, ok := strings.CutSuffix(pat, "/..."); ok {
			recursive = true
			pat = rest
		} else if pat == "..." {
			recursive = true
			pat = "."
		}
		dir := pat
		if !filepath.IsAbs(dir) {
			dir = filepath.Join(l.root, dir)
		}
		if !recursive {
			if err := add(dir); err != nil {
				return nil, err
			}
			continue
		}
		err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != dir && (name == "testdata" || name == "vendor" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				return add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

func hasGoFiles(dir string) bool {
	names, err := goFiles(dir)
	return err == nil && len(names) > 0
}

// goFiles lists, sorted, the non-test Go files of dir that the host platform
// builds: a file another GOOS/GOARCH owns (name suffix or //go:build line) or
// one marked ignore is not part of the package the compiler sees, and taking
// it would redeclare what its counterpart for this platform declares.
func goFiles(dir string) ([]string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, n); err != nil {
			return nil, err
		} else if ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return names, nil
}

// FindModuleRoot walks up from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(abs, "go.mod")); err == nil {
			return abs, nil
		}
		parent := filepath.Dir(abs)
		if parent == abs {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		abs = parent
	}
}
