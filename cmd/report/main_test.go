package main

import (
	"bytes"
	"errors"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/harness"
	"repro/internal/stats"
)

// TestCommittedReportIsCurrent pins docs/report.md to the generator's
// output, so a change to a model constant or to internal/impl's line counts
// fails until the new numbers are committed. Regenerate with
// UPDATE_GOLDEN=1 go test ./cmd/report
func TestCommittedReportIsCurrent(t *testing.T) {
	const path = "../../docs/report.md"
	var doc bytes.Buffer
	if err := document(&doc, harness.All()); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	committed, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if !bytes.Equal(committed, doc.Bytes()) {
		got, want := strings.Split(doc.String(), "\n"), strings.Split(string(committed), "\n")
		for i := range got {
			if i >= len(want) || got[i] != want[i] {
				t.Fatalf("%s is stale from line %d (refresh with UPDATE_GOLDEN=1 go test ./cmd/report):\n generated: %s", path, i+1, got[i])
			}
		}
		t.Fatalf("%s has %d lines the generator no longer writes", path, len(want)-len(got))
	}
}

// TestGeneratorErrorIsFatal: an experiment that fails stops the document
// with its ID in the error; the parent dropped the section and exited 0.
func TestGeneratorErrorIsFatal(t *testing.T) {
	exps := []harness.Experiment{
		{ID: "fine", Table: func() (stats.Table, error) { return stats.Table{Header: []string{"a"}}, nil }},
		{ID: "broken", Table: func() (stats.Table, error) { return stats.Table{}, errors.New("model failed") }},
	}
	err := document(io.Discard, exps)
	if err == nil || err.Error() != "broken: model failed" {
		t.Fatalf("document error %v, want \"broken: model failed\"", err)
	}
}

// TestReportCLI drives the one command through what used to be four
// binaries; every assertion of their CLI tests is here.
func TestReportCLI(t *testing.T) {
	ok := func(t *testing.T, args ...string) string {
		t.Helper()
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("report %s: %v\n%s", strings.Join(args, " "), err, out.String())
		}
		return out.String()
	}
	fails := func(t *testing.T, wantErr string, args ...string) {
		t.Helper()
		var out bytes.Buffer
		err := run(args, &out)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Fatalf("report %s: error %v, want one containing %q", strings.Join(args, " "), err, wantErr)
		}
		if out.Len() != 0 {
			t.Fatalf("report %s failed after printing:\n%s", strings.Join(args, " "), out.String())
		}
	}
	contains := func(t *testing.T, out string, wants ...string) {
		t.Helper()
		for _, want := range wants {
			if !strings.Contains(out, want) {
				t.Fatalf("output missing %q:\n%s", want, out)
			}
		}
	}

	t.Run("figs", func(t *testing.T) { // was cmd/paperfigs
		contains(t, ok(t, "figs", "-list"), "table1", "fig12", "sectionVE", "ext-wide", "convergence")
		contains(t, ok(t, "figs", "-exp", "sectionVE"), "GPU-resident best")
		lines := strings.Split(strings.TrimSpace(ok(t, "figs", "-exp", "fig10", "-csv")), "\n")
		if len(lines) != 6 || !strings.HasPrefix(lines[0], "cores,") {
			t.Fatalf("csv output wrong:\n%s", strings.Join(lines, "\n"))
		}
		fails(t, "unknown experiment", "figs", "-exp", "fig99")
	})
	t.Run("csv", func(t *testing.T) {
		// The extension experiments have series too; only tables refuse.
		lines := strings.Split(strings.TrimSpace(ok(t, "figs", "-exp", "ext-pcie", "-csv")), "\n")
		if len(lines) != 5 || lines[0] != "CPU-GPU speedup,gpu-bulk,gpu-streams,hybrid-bulk,hybrid-overlap" {
			t.Fatalf("ext-pcie csv wrong:\n%s", strings.Join(lines, "\n"))
		}
		fails(t, "table1 has no series data (tables have none)", "figs", "-exp", "table1", "-csv")
		fails(t, "-csv requires -exp", "figs", "-csv")
	})
	t.Run("fig2", func(t *testing.T) { // was cmd/locreport
		contains(t, ok(t, "figs", "-exp", "fig2"), "215", "860", "4.00x", "hybrid-overlap")
	})
	t.Run("sweep", func(t *testing.T) { // was cmd/sweep
		contains(t, ok(t, "sweep", "-machine", "Yona", "-impl", "hybrid-overlap", "-cores", "12,24"),
			"Yona", "hybrid-overlap", "<-- best", "thickness")
		fails(t, "Nonesuch", "sweep", "-machine", "Nonesuch")
		fails(t, "bad core count", "sweep", "-cores", "twelve")
	})
	t.Run("sweep rejects what it cannot tabulate", func(t *testing.T) {
		fails(t, `bad core count "0"`, "sweep", "-cores", "0,-5,7")
		fails(t, `bad core count "-5"`, "sweep", "-cores", "12,-5")
		fails(t, "no feasible configuration", "sweep", "-machine", "JaguarPF", "-impl", "gpu-bulk")
		fails(t, "no feasible configuration", "sweep", "-machine", "Yona", "-impl", "bulk", "-cores", "100000")
	})
	t.Run("unknown subcommand", func(t *testing.T) {
		fails(t, "unknown subcommand", "paperfigs")
	})
}
