package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// buildCLI compiles the command once per test binary.
func buildCLI(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "advect")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	cmd.Env = os.Environ()
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Skipf("cannot build CLI (no toolchain?): %v\n%s", err, out)
	}
	return bin
}

func runCLI(t *testing.T, bin string, args ...string) string {
	t.Helper()
	out, err := exec.Command(bin, args...).CombinedOutput()
	if err != nil {
		t.Fatalf("advect %v: %v\n%s", args, err, out)
	}
	return string(out)
}

func TestCLIEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)

	// List mode names all ten implementations.
	list := runCLI(t, bin, "-list")
	for _, want := range []string{"single", "bulk", "hybrid-overlap", "wide-halo", "IV-A", "IV-I"} {
		if !strings.Contains(list, want) {
			t.Fatalf("-list missing %q:\n%s", want, list)
		}
	}

	// A verified hybrid run.
	out := runCLI(t, bin, "-impl", "hybrid-overlap", "-n", "16", "-steps", "3",
		"-tasks", "2", "-threads", "2")
	for _, want := range []string{"error L2", "mass drift", "sim.gf"} {
		if !strings.Contains(out, want) {
			t.Fatalf("run output missing %q:\n%s", want, out)
		}
	}

	// Checkpoint round trip through the CLI.
	ckpt := filepath.Join(t.TempDir(), "s.ckpt")
	runCLI(t, bin, "-impl", "bulk", "-n", "12", "-steps", "4", "-tasks", "2", "-save", ckpt)
	out = runCLI(t, bin, "-impl", "bulk", "-steps", "4", "-tasks", "2", "-load", ckpt)
	if !strings.Contains(out, "resumed from") || !strings.Contains(out, "4 steps already integrated") {
		t.Fatalf("resume output wrong:\n%s", out)
	}

	// Overlap tracing: -trace writes Chrome trace-event JSON and prints
	// the overlap report — the one account of what overlapped; the stats
	// dump no longer carries a second one.
	traceFile := filepath.Join(t.TempDir(), "trace.json")
	out = runCLI(t, bin, "-impl", "gpu-streams", "-n", "16", "-steps", "2", "-trace", traceFile)
	for _, want := range []string{"overlap report:", "pcie/kernel", "chrome trace written"} {
		if !strings.Contains(out, want) {
			t.Fatalf("trace output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "trace.overlap") {
		t.Fatalf("trace output still prints trace.* stats:\n%s", out)
	}
	raw, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file does not unmarshal: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no events")
	}

	// Unknown implementation fails loudly.
	if _, err := exec.Command(bin, "-impl", "nope").CombinedOutput(); err == nil {
		t.Fatal("unknown implementation accepted")
	}

	// So does an unknown device: a typo must not run on a C2050.
	cmd := exec.Command(bin, "-impl", "gpu", "-n", "8", "-steps", "1", "-gpu", "c2O50")
	out2, err := cmd.CombinedOutput()
	if err == nil || cmd.ProcessState.ExitCode() != 1 {
		t.Fatalf("-gpu c2O50: err %v, output:\n%s", err, out2)
	}
	if !strings.Contains(string(out2), "c1060") || !strings.Contains(string(out2), "c2050") {
		t.Fatalf("-gpu error does not name the valid models:\n%s", out2)
	}
}

// TestCLIPrintsTheConfigurationThatRan: the configuration line reports
// the options the run used, not the flags: §IV-A is one task whatever
// -tasks says, and a thread count below one runs as one.
func TestCLIPrintsTheConfigurationThatRan(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-impl", "single", "-n", "8", "-steps", "1", "-tasks", "4", "-threads", "2"}, "configuration  : 1 tasks x 2 threads\n"},
		{[]string{"-impl", "hybrid-bulk", "-n", "16", "-steps", "1", "-threads", "0"}, "configuration  : 1 tasks x 1 threads, 32x8 blocks on c2050, box thickness 1\n"},
	} {
		if out := runCLI(t, bin, c.args...); !strings.Contains(out, c.want) {
			t.Errorf("advect %v: output lacks %q:\n%s", c.args, c.want, out)
		}
	}
}

// TestCLITimeoutBoundsCalibration: -timeout is one deadline for the whole
// command, so the -mintime probes run under it too. A two-minute
// calibration target under a 300 ms deadline must stop at the deadline
// and say why, not run its probes to the end.
func TestCLITimeoutBoundsCalibration(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a binary")
	}
	bin := buildCLI(t)
	start := time.Now()
	out, err := exec.Command(bin, "-n", "64", "-mintime", "2m", "-timeout", "300ms").CombinedOutput()
	took := time.Since(start)
	if err == nil {
		t.Fatalf("calibration past its deadline exited 0:\n%s", out)
	}
	if took > 2*time.Second {
		t.Fatalf("exited after %v, want within 2s of a 300ms deadline:\n%s", took, out)
	}
	if !strings.Contains(string(out), "cancelled") {
		t.Fatalf("output does not name the cancellation:\n%s", out)
	}
}
