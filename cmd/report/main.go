// Command report renders the experiments declared in internal/harness.
//
//	report [-o file]                       the Markdown document committed as docs/report.md
//	report figs [-exp id] [-csv] [-list]   terminal text with ASCII charts, or one experiment's series as CSV
//	report sweep -machine M -impl K [-cores a,b] [-blockx X -blocky Y]
//	                                       every point of the tuning search behind a "best of" figure
//
// The document is pinned by this package's test: after changing a model or
// calibration constant, `UPDATE_GOLDEN=1 go test ./cmd/report` rewrites it
// and `git diff docs/report.md` shows what moved.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/harness"
	"repro/internal/stats"
	"repro/internal/tune"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "report:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		switch args[0] {
		case "figs":
			return figs(args[1:], stdout)
		case "sweep":
			return sweep(args[1:], stdout)
		}
		return fmt.Errorf("unknown subcommand %q (want figs or sweep)", args[0])
	}
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	out := fs.String("o", "", "write to this file instead of stdout")
	fs.Parse(args)
	var doc bytes.Buffer
	if err := document(&doc, harness.All()); err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, doc.Bytes(), 0o644)
	}
	_, err := stdout.Write(doc.Bytes())
	return err
}

const preamble = "Every experiment of `internal/harness`, computed from the models in the tree by `go run ./cmd/report`; `go test ./cmd/report` fails while this file differs from that output. `go run ./cmd/report figs -exp <id>` prints one section in a terminal, charts included."

// document writes docs/report.md: one section per experiment, in the order
// given. An experiment's error aborts the document.
func document(w io.Writer, exps []harness.Experiment) error {
	fmt.Fprintf(w, "# Reproduction report (generated)\n\n%s\n\n", preamble)
	for _, e := range exps {
		fmt.Fprintf(w, "## %s — %s\n\n`%s` — expected: %s\n\n", e.PaperRef, e.Title, e.ID, e.Expect)
		if err := e.Markdown(w); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func figs(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("report figs", flag.ExitOnError)
	expID := fs.String("exp", "", "run a single experiment by ID (default: all)")
	csv := fs.Bool("csv", false, "emit the experiment's series as CSV (requires -exp; table experiments have none)")
	list := fs.Bool("list", false, "list experiments and exit")
	fs.Parse(args)

	exps := harness.All()
	if *list {
		for _, e := range exps {
			fmt.Fprintf(stdout, "%-10s %-12s %s\n", e.ID, e.PaperRef, e.Title)
		}
		return nil
	}
	if *expID != "" {
		e, err := harness.ByID(*expID)
		if err != nil {
			return err
		}
		exps = []harness.Experiment{e}
	}
	if *csv {
		if *expID == "" {
			return fmt.Errorf("-csv requires -exp")
		}
		return exps[0].CSV(stdout)
	}
	for i, e := range exps {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		fmt.Fprintf(stdout, "=== %s — %s (%s)\npaper: %s\n\n", e.ID, e.Title, e.PaperRef, e.Expect)
		if err := e.Run(stdout); err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
	}
	return nil
}

// sweep prints the modelled GF of every feasible point of the tuning space
// — threads per task and, for the hybrid implementations, box thickness —
// at each core count, marking the best: the raw material of the paper's
// "best of" figures.
func sweep(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("report sweep", flag.ExitOnError)
	machineName := fs.String("machine", "Yona", "machine: JaguarPF, 'Hopper II', Lens, Yona")
	implName := fs.String("impl", "hybrid-overlap", "implementation name")
	coresArg := fs.String("cores", "", "comma-separated core counts (default: the figure sweep)")
	blockX := fs.Int("blockx", 0, "GPU block x (default: the machine's best block)")
	blockY := fs.Int("blocky", 0, "GPU block y")
	fs.Parse(args)

	m, err := advect.MachineByName(*machineName)
	if err != nil {
		return err
	}
	kind, err := advect.ParseKind(*implName)
	if err != nil {
		return err
	}
	cores := harness.CoreCounts(m)
	if *coresArg != "" {
		cores = nil
		for _, s := range strings.Split(*coresArg, ",") {
			v, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || v <= 0 {
				return fmt.Errorf("bad core count %q: want a positive integer", s)
			}
			cores = append(cores, v)
		}
	}
	space := harness.Space(m, kind)
	if *blockX > 0 {
		space.BlockX = []int{*blockX}
	}
	if *blockY > 0 {
		space.BlockY = []int{*blockY}
	}

	t := stats.Table{Header: []string{"cores", "threads", "thickness", "step ms", "GF", "best"}}
	for _, c := range cores {
		r, _ := tune.Exhaustive(m, kind, c, space) // a count with no feasible point adds no rows
		for _, e := range r.Feasible {
			mark := ""
			if e.GF == r.GF {
				mark = "<-- best"
			}
			t.AddRow(fmt.Sprint(c), fmt.Sprint(e.Point.Threads), fmt.Sprint(e.Point.Thickness),
				fmt.Sprintf("%.3f", e.StepSec*1e3), fmt.Sprintf("%.1f", e.GF), mark)
		}
	}
	if len(t.Rows) == 0 {
		return fmt.Errorf("no feasible configuration of %v on %s at cores %v", kind, m.Name, cores)
	}
	fmt.Fprintf(stdout, "machine %s, implementation %s (%s), block %dx%d\n\n",
		m.Name, kind, kind.Describe(), space.BlockX[0], space.BlockY[0])
	t.Render(stdout)
	return nil
}
