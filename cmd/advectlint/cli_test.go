package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// lintBin is the advectlint binary, built once for all the CLI tests (they
// run in parallel; each used to build its own).
var lintBin struct {
	once sync.Once
	path string
	err  error
}

func TestMain(m *testing.M) {
	code := m.Run()
	if lintBin.path != "" {
		os.RemoveAll(filepath.Dir(lintBin.path))
	}
	os.Exit(code)
}

func buildLint(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("builds a binary")
	}
	t.Parallel()
	lintBin.once.Do(func() {
		dir, err := os.MkdirTemp("", "advectlint")
		if err != nil {
			lintBin.err = err
			return
		}
		lintBin.path = filepath.Join(dir, "advectlint")
		if out, err := exec.Command("go", "build", "-o", lintBin.path, ".").CombinedOutput(); err != nil {
			lintBin.err = fmt.Errorf("%v\n%s", err, out)
		}
	})
	if lintBin.err != nil {
		t.Skipf("cannot build: %v", lintBin.err)
	}
	return lintBin.path
}

// TestAdvectlintCleanRepo is the CI gate in miniature: the suite must exit
// zero over this repository.
func TestAdvectlintCleanRepo(t *testing.T) {
	bin := buildLint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = filepath.Join("..", "..")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("advectlint flagged the repo: %v\n%s", err, out)
	}
	if len(strings.TrimSpace(string(out))) != 0 {
		t.Fatalf("expected no output on a clean repo, got:\n%s", out)
	}
}

func TestAdvectlintList(t *testing.T) {
	bin := buildLint(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("advectlint -list: %v\n%s", err, out)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	if got, want := strings.Join(names, " "), "ctxflow lockheld goroutinelife"; got != want {
		t.Errorf("-list names %q, want %q:\n%s", got, want, out)
	}
}

// TestAdvectlintFlagsSeededViolation runs the binary over a scratch module
// with a deliberate ctxflow violation and expects a diagnostic and a
// non-zero exit.
func TestAdvectlintFlagsSeededViolation(t *testing.T) {
	bin := buildLint(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "lib", "lib.go"), `package lib

import "context"

func Root() context.Context { return context.Background() }
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected non-zero exit on seeded violation, output:\n%s", out)
	}
	s := string(out)
	if !strings.Contains(s, "[ctxflow]") || !strings.Contains(s, "lib.go:5") {
		t.Fatalf("diagnostic missing or misplaced:\n%s", s)
	}
}

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}
