package lint

import (
	"strings"
	"testing"
)

func TestHotPathAlloc(t *testing.T) {
	runFixture(t, "hotpath_bad", HotPathAlloc)
	runFixture(t, "hotpath_clean", HotPathAlloc)
}

func TestWorkspacePair(t *testing.T) {
	runFixture(t, "workspace_bad", WorkspacePair)
	runFixture(t, "workspace_clean", WorkspacePair)
}

func TestFloatEq(t *testing.T) {
	runFixture(t, "floateq_bad", FloatEq)
	runFixture(t, "floateq_clean", FloatEq)
}

// TestStaleIgnores asserts the stale-suppression satellite: a directive that
// matches a finding is honored silently, one that matches nothing is itself
// a diagnostic.
func TestStaleIgnores(t *testing.T) {
	runFixture(t, "ignore_stale", FloatEq)
}

// TestMalformedIgnores asserts that broken suppression directives are
// reported as [lint] diagnostics and do NOT suppress the findings they sit
// above: three malformed directives, three live floateq findings.
func TestMalformedIgnores(t *testing.T) {
	l, pkg := loadFixture(t, "ignore_bad")
	diags := Run(l, []*Package{pkg}, []*Analyzer{FloatEq})
	var lintCount, floatCount int
	for _, d := range diags {
		switch d.Analyzer {
		case "lint":
			lintCount++
		case "floateq":
			floatCount++
		default:
			t.Errorf("unexpected analyzer %q: %s", d.Analyzer, d)
		}
	}
	if lintCount != 3 {
		t.Errorf("got %d [lint] directive diagnostics, want 3", lintCount)
	}
	if floatCount != 3 {
		t.Errorf("got %d floateq diagnostics, want 3 (malformed directives must not suppress)", floatCount)
	}
	var sawNoAnalyzer, sawUnknown, sawNoReason bool
	for _, d := range diags {
		if d.Analyzer != "lint" {
			continue
		}
		switch {
		case strings.Contains(d.Message, "names no analyzer"):
			sawNoAnalyzer = true
		case strings.Contains(d.Message, "unknown analyzer"):
			sawUnknown = true
		case strings.Contains(d.Message, "gives no reason"):
			sawNoReason = true
		}
	}
	if !sawNoAnalyzer || !sawUnknown || !sawNoReason {
		t.Errorf("missing a malformed-directive variant: no-analyzer=%v unknown=%v no-reason=%v", sawNoAnalyzer, sawUnknown, sawNoReason)
	}
}

// TestSuiteMetadata pins the analyzer registry — the one place the set is
// named, so a renamed, dropped or added analyzer is a reviewed change here —
// and checks each entry is documented and runnable.
func TestSuiteMetadata(t *testing.T) {
	want := []string{"hotpathalloc", "workspacepair", "floateq"}
	var got []string
	for _, a := range All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is missing name, doc, or run", a)
		}
		got = append(got, a.Name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("analyzers %v, want %v", got, want)
	}
}

// TestRealTreeSpotCheck runs the full suite over two load-bearing production
// packages; the tree is kept clean by scripts/ci.sh, so any diagnostic here
// is a regression in either the code or the analyzers.
func TestRealTreeSpotCheck(t *testing.T) {
	l := fixtureLoader(t)
	var targets []*Package
	for _, dir := range []string{"internal/tensor", "internal/morton"} {
		pkg, err := l.LoadDir(l.Root() + "/" + dir)
		if err != nil {
			t.Fatalf("loading %s: %v", dir, err)
		}
		targets = append(targets, pkg)
	}
	for _, d := range Run(l, targets, All()) {
		t.Errorf("unexpected diagnostic on the production tree: %s", d)
	}
}
