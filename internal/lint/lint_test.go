package lint_test

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/lint"
)

// wantRe extracts the backtick-quoted expectation patterns from a
// "// want `...` `...`" comment.
var wantRe = regexp.MustCompile("`([^`]+)`")

// expectation is one unmatched want pattern.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

// parseWants scans every fixture file in dir for "// want" comments and
// returns the expected diagnostics keyed by (file, line).
func parseWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var wants []*expectation
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			i := strings.Index(text, "// want ")
			if i < 0 {
				continue
			}
			for _, m := range wantRe.FindAllStringSubmatch(text[i:], -1) {
				wants = append(wants, &expectation{file: path, line: line, re: regexp.MustCompile(m[1])})
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		f.Close()
	}
	return wants
}

// runFixture loads one testdata package, runs the analyzers, and verifies
// the diagnostics against the fixture's want comments: every finding must
// be wanted and every want must be found.
func runFixture(t *testing.T, name, importPath string, analyzers []*lint.Analyzer) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg, err := lint.LoadDir(dir, importPath)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	diags := lint.Run([]*lint.Package{pkg}, analyzers)
	wants := parseWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want comments", name)
	}

outer:
	for _, d := range diags {
		for _, w := range wants {
			if w.hit || !sameFile(w.file, d.Pos.Filename) || w.line != d.Pos.Line {
				continue
			}
			if w.re.MatchString(d.Message) {
				w.hit = true
				continue outer
			}
		}
		t.Errorf("unexpected diagnostic: %s", d)
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
}

func sameFile(a, b string) bool {
	aa, err1 := filepath.Abs(a)
	bb, err2 := filepath.Abs(b)
	return err1 == nil && err2 == nil && aa == bb
}

// TestCtxflowFixture also exercises the //advect:nolint escape hatch:
// well-formed directives suppress, malformed or unknown ones are findings.
func TestCtxflowFixture(t *testing.T) {
	runFixture(t, "ctxflow", "fixture/ctxflow", lint.Default())
}

func TestLockheldFixture(t *testing.T) {
	runFixture(t, "lockheld", "fixture/lockheld", []*lint.Analyzer{lint.LockHeld()})
}

func TestGoroutineLifeFixture(t *testing.T) {
	runFixture(t, "goroutinelife", "fixture/goroutinelife", []*lint.Analyzer{lint.GoroutineLife()})
}

// TestNolintEdgeFixture covers the corners of the escape hatch — block
// comments, directive above vs trailing, two directives chained on one
// line that trips lockheld and ctxflow at once — under the default
// registry.
func TestNolintEdgeFixture(t *testing.T) {
	runFixture(t, "nolintedge", "fixture/nolintedge", lint.Default())
}

// TestDefaultRegistry pins the analyzer set: the CI gate's coverage is
// part of the contract.
func TestDefaultRegistry(t *testing.T) {
	var names []string
	for _, a := range lint.Default() {
		names = append(names, a.Name)
		if a.Doc == "" {
			t.Errorf("analyzer %s has no doc line", a.Name)
		}
	}
	want := []string{"ctxflow", "lockheld", "goroutinelife"}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("registry = %v, want %v", names, want)
	}
}
