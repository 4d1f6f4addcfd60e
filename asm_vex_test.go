package edgepc_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// vecReg matches an XMM or YMM register operand.
var vecReg = regexp.MustCompile(`\b[XY](1[0-5]|[0-9])\b`)

// legacySSE returns the instructions of an amd64 assembly source that name
// an X or Y register but are not VEX-encoded (their mnemonic does not start
// with V), one "line: instruction" each. A macro's body is checked where it
// is defined, with the registers it names itself; its invocations, and the
// directives, are skipped.
func legacySSE(src string) []string {
	var bad []string
	for i, line := range strings.Split(src, "\n") {
		if c := strings.Index(line, "//"); c >= 0 {
			line = line[:c]
		}
		for _, stmt := range strings.Split(strings.TrimSuffix(strings.TrimSpace(line), "\\"), ";") {
			fields := strings.Fields(stmt)
			if len(fields) < 2 || strings.HasPrefix(fields[0], "#") || strings.ContainsAny(fields[0], "(:") ||
				fields[0] == "DATA" || fields[0] == "GLOBL" || fields[0] == "TEXT" {
				continue
			}
			if !strings.HasPrefix(fields[0], "V") && vecReg.MatchString(strings.Join(fields[1:], " ")) {
				bad = append(bad, fmt.Sprintf("%d: %s", i+1, strings.Join(fields, " ")))
			}
		}
	}
	return bad
}

// TestAssemblyIsVEXOnly: a legacy-SSE instruction on a vector register after
// a 256-bit write costs a state transition each time it runs: one MOVQ into
// an XMM register after the 3-NN kernel's distance loop made a whole
// 2048-target join 2.7× slower, and a MOVSD made an FPS update 9× slower.
// Every vector kernel must use the VEX forms (VMOVQ, VMOVSD, …) only.
func TestAssemblyIsVEXOnly(t *testing.T) {
	for src, want := range map[string]int{
		"\tMOVQ AX, X3\n":                                              1,
		"\tMOVSD X0, ret+8(FP) // a store\n":                           1,
		"\tPXOR X1, X1\n\tMOVQ AX, BX\n":                               1,
		"#define M(v) \\\n\tVMOVQ AX, v; \\\n\tMOVQ AX, X2\n\tM(X1)\n": 1,
		"\tVMOVQ AX, X3\n\tMOVQ x+8(FP), AX\n// MOVQ AX, X3\nloop:\nDATA t<>+0(SB)/8, $0\n": 0,
	} {
		if got := legacySSE(src); len(got) != want {
			t.Fatalf("checker on %q: %v, want %d findings", src, got, want)
		}
	}
	files, err := filepath.Glob("internal/*/*_amd64.s")
	if err != nil || len(files) == 0 {
		t.Fatalf("no amd64 assembly found: %v", err)
	}
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range legacySSE(string(src)) {
			t.Errorf("%s:%s: legacy-SSE instruction on a vector register; use its VEX form", f, b)
		}
	}
}
