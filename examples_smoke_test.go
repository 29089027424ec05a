package advect_test

// Smoke tests for the runnable examples: each must build and exit cleanly.
// This keeps the documentation executable.

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestExamplesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries")
	}
	entries, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("only %d examples", len(entries))
	}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		name := e.Name()
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			bin := filepath.Join(t.TempDir(), name)
			build := exec.Command("go", "build", "-o", bin, "./"+filepath.Join("examples", name))
			if out, err := build.CombinedOutput(); err != nil {
				t.Skipf("cannot build (no toolchain?): %v\n%s", err, out)
			}
			cmd := exec.Command(bin)
			done := make(chan error, 1)
			var out strings.Builder
			cmd.Stdout = &out
			cmd.Stderr = &out
			if err := cmd.Start(); err != nil {
				t.Fatal(err)
			}
			go func() { done <- cmd.Wait() }()
			select {
			case err := <-done:
				if err != nil {
					t.Fatalf("%s failed: %v\n%s", name, err, out.String())
				}
			case <-time.After(2 * time.Minute):
				cmd.Process.Kill()
				t.Fatalf("%s timed out", name)
			}
			if out.Len() == 0 {
				t.Fatalf("%s produced no output", name)
			}
		})
	}
}
