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
	for _, name := range []string{"nilsafe", "clockdiscipline", "ctxflow", "lockheld", "lockorder", "goroutinelife"} {
		if !strings.Contains(string(out), name) {
			t.Errorf("-list output missing %q:\n%s", name, out)
		}
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

// TestAdvectlintFlagsLockOrderInversion seeds a scratch module with a
// cross-package lock-order inversion — pkga orders A before B, pkgb
// reaches A under B through a helper — and expects exit 1 with the cycle
// and both acquisition chains named.
func TestAdvectlintFlagsLockOrderInversion(t *testing.T) {
	bin := buildLint(t)
	dir := t.TempDir()
	writeFile(t, filepath.Join(dir, "go.mod"), "module scratch\n\ngo 1.22\n")
	writeFile(t, filepath.Join(dir, "locks", "locks.go"), `package locks

import "sync"

var (
	MuA sync.Mutex
	MuB sync.Mutex
)

// GrabA is the helper the inverted path goes through.
func GrabA() {
	MuA.Lock()
	MuA.Unlock()
}
`)
	writeFile(t, filepath.Join(dir, "pkga", "pkga.go"), `package pkga

import "scratch/locks"

func AB() {
	locks.MuA.Lock()
	defer locks.MuA.Unlock()
	locks.MuB.Lock()
	locks.MuB.Unlock()
}
`)
	writeFile(t, filepath.Join(dir, "pkgb", "pkgb.go"), `package pkgb

import "scratch/locks"

func BA() {
	locks.MuB.Lock()
	defer locks.MuB.Unlock()
	locks.GrabA()
}
`)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("expected non-zero exit on lock-order inversion, output:\n%s", out)
	}
	s := string(out)
	for _, want := range []string{
		"[lockorder]",
		"potential deadlock: lock-order cycle locks.MuA → locks.MuB → locks.MuA",
		"in pkga.AB",
		"via pkgb.BA → locks.GrabA",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, s)
		}
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
