package lint

import (
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
)

// brokenLoader builds a private loader per test: failed loads must not
// pollute the suite-shared fixture loader, and nothing below may panic.
func brokenLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := FindModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// wantLoadError asserts err is a *LoadError of the given kind.
func wantLoadError(t *testing.T, err error, kind LoadErrorKind) *LoadError {
	t.Helper()
	if err == nil {
		t.Fatalf("load succeeded, want *LoadError kind %q", kind)
	}
	var le *LoadError
	if !errors.As(err, &le) {
		t.Fatalf("error is %T (%v), want *LoadError", err, err)
	}
	if le.Kind != kind {
		t.Fatalf("LoadError kind = %q (%v), want %q", le.Kind, le, kind)
	}
	if le.Unwrap() == nil {
		t.Errorf("LoadError has no underlying cause: %v", le)
	}
	return le
}

func TestLoadSyntaxError(t *testing.T) {
	// The unparseable file is generated at test time rather than committed:
	// a checked-in syntax error would fail the repo-wide gofmt gate in ci.sh.
	l := brokenLoader(t)
	dir, err := os.MkdirTemp(l.Root(), "lint-syntaxerr-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	src := "package syntaxerr\n\nfunc Broken( {\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = l.LoadDir(dir)
	wantLoadError(t, err, LoadParse)
}

func TestLoadTypeError(t *testing.T) {
	l := brokenLoader(t)
	_, err := l.LoadDir(filepath.Join("testdata", "broken", "typeerr"))
	le := wantLoadError(t, err, LoadType)
	if le.Path == "" {
		t.Errorf("type error carries no package path: %v", le)
	}
}

func TestLoadOutsideModule(t *testing.T) {
	l := brokenLoader(t)
	_, err := l.LoadDir(t.TempDir())
	wantLoadError(t, err, LoadOutsideModule)
}

func TestLoadNoGoFiles(t *testing.T) {
	l := brokenLoader(t)
	dir, err := os.MkdirTemp(l.Root(), "lint-empty-")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	_, err = l.LoadDir(dir)
	wantLoadError(t, err, LoadNoFiles)
}

// TestLoadBrokenNeverCached asserts a failed package is retryable: the
// loader does not cache the failure or the partial package.
func TestLoadBrokenNeverCached(t *testing.T) {
	l := brokenLoader(t)
	dir := filepath.Join("testdata", "broken", "typeerr")
	if _, err := l.LoadDir(dir); err == nil {
		t.Fatal("first load succeeded unexpectedly")
	}
	for _, p := range l.Module() {
		if filepath.Base(p.Dir) == "typeerr" {
			t.Fatalf("broken package was cached: %+v", p)
		}
	}
	if _, err := l.LoadDir(dir); err == nil {
		t.Fatal("second load succeeded unexpectedly")
	}
}

// TestLoadHonoursBuildConstraints loads the package the compiler would: of
// three files declaring the same constant only the host platform's, and not
// the //go:build ignore generator that does not type-check. The whole suite
// then finds nothing in it — a hot path calling a body-less (assembly)
// declaration ends at a leaf.
func TestLoadHonoursBuildConstraints(t *testing.T) {
	l, pkg := loadFixture(t, "platform_clean")
	lanes := "lanes_other.go"
	if runtime.GOARCH == "amd64" || runtime.GOARCH == "arm64" {
		lanes = "lanes_" + runtime.GOARCH + ".go"
	}
	var got []string
	for _, f := range pkg.Files {
		got = append(got, filepath.Base(l.Fset.File(f.Pos()).Name()))
	}
	if want := []string{lanes, "platform_clean.go"}; !slices.Equal(got, want) {
		t.Fatalf("loaded files %v, want %v", got, want)
	}
	runFixture(t, "platform_clean", All()...)
}
