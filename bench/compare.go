package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runRecord is one child run inside a set.
type runRecord struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	result
}

// runSet is a complete set of runs of one commit, as -out writes it.
type runSet struct {
	Host    map[string]any `json:"host"`
	Seconds float64        `json:"seconds"`
	Runs    []runRecord    `json:"runs"`
}

// values returns the metric's value in every run of the workload.
func (s *runSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v.Value)
		}
	}
	return out
}

// failedShare returns failed and attempted operations over the whole set.
func (s *runSet) failedShare() (failed, attempted int) {
	for _, r := range s.Runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return failed, attempted
}

// runAll runs each named workload runs times, each run in a fresh child
// process of this same binary, and prints each metric's median and quartiles
// over the runs.
func runAll(ctx context.Context, names []string, seed uint64, seconds float64, trace, runs int, out string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := runSet{Host: hostInfo(), Seconds: seconds}
	for _, name := range names {
		for r := 0; r < runs; r++ {
			s := seed + uint64(r)
			cmd := exec.CommandContext(ctx, self,
				"-workload", name, "-seed", strconv.FormatUint(s, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64),
				"-trace", strconv.Itoa(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", name, s, err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			rec := runRecord{Workload: name, Seed: s, Trace: trace != 0}
			if err := json.Unmarshal(lines[len(lines)-1], &rec.result); err != nil {
				return fmt.Errorf("%s seed %d: result line: %w", name, s, err)
			}
			set.Runs = append(set.Runs, rec)
			fmt.Fprintf(os.Stderr, "%s seed %d: %d operations, %d failed\n", name, s, rec.Attempted, rec.Failed)
		}
	}
	defs := endToEnd()
	if trace != 0 {
		defs = perLayer()
	}
	for _, name := range names {
		fmt.Printf("\n## %s (%d runs of %gs)\n", name, runs, seconds)
		fmt.Printf("%-36s %-7s %3s %14s %14s %14s %8s\n", "metric", "unit", "n", "q1", "median", "q3", "spread")
		for _, d := range defs {
			xs := set.values(name, d.Name)
			q1, med, q3 := quartiles(xs)
			fmt.Printf("%-36s %-7s %3d %14.6g %14.6g %14.6g %7.1f%%\n", d.Name, d.Unit, len(xs), q1, med, q3, 100*spread(xs))
		}
	}
	failed, attempted := set.failedShare()
	fmt.Printf("\nops_attempted %d  ops_failed %d\n", attempted, failed)
	if out != "" {
		data, err := json.MarshalIndent(set, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			return err
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d operations failed", failed, attempted)
	}
	return nil
}

func loadSet(path string) (*runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s runSet
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges one metric of one workload between a base set and another
// by the metric's own bound.
type verdict struct {
	baseMed, med     float64
	change           float64 // signed share of the base median; positive is worse
	baseSpread, sprd float64
	status           string
}

const (
	statusOK         = "ok"
	statusBetter     = "better"
	statusRegression = "REGRESSION"
	statusUnresolved = "unresolved"
)

func judge(d metricDef, base, other []float64) verdict {
	v := verdict{baseMed: median(base), med: median(other), baseSpread: spread(base), sprd: spread(other)}
	v.change = (v.med - v.baseMed) / v.baseMed
	if d.Better == higher {
		v.change = -v.change
	}
	switch {
	case (v.baseSpread > d.Bound || v.sprd > d.Bound) && !separated(d, base, other):
		// The runs of one side disagree by more than the bound: a
		// difference of that size cannot be told from noise.
		v.status = statusUnresolved
	case v.change > d.Bound:
		v.status = statusRegression
	case v.change < -d.Bound:
		v.status = statusBetter
	default:
		v.status = statusOK
	}
	return v
}

// separated reports whether every run of other reads better than every run
// of base.
func separated(d metricDef, base, other []float64) bool {
	for _, o := range other {
		for _, b := range base {
			if (d.Better == higher && o <= b) || (d.Better == lower && o >= b) {
				return false
			}
		}
	}
	return true
}

// compareSets applies every end-to-end metric's bound between the first set
// and each later one, workload by workload.
func compareSets(paths []string) error {
	if len(paths) < 2 {
		return fmt.Errorf("-compare needs a base set and at least one other")
	}
	base, err := loadSet(paths[0])
	if err != nil {
		return err
	}
	bad := 0
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	for _, p := range paths[1:] {
		other, err := loadSet(p)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "# %s against base %s\n", p, paths[0])
		fmt.Fprintf(w, "%-13s %-22s %12s %12s %8s %7s %8s %8s  %s\n",
			"workload", "metric", "base", "other", "worse", "bound", "spreadA", "spreadB", "verdict")
		for _, wl := range workloadWhy {
			for _, d := range endToEnd() {
				a, b := base.values(wl.name, d.Name), other.values(wl.name, d.Name)
				if len(a) == 0 || len(b) == 0 {
					continue
				}
				v := judge(d, a, b)
				if v.status == statusRegression || v.status == statusUnresolved {
					bad++
				}
				fmt.Fprintf(w, "%-13s %-22s %12.5g %12.5g %+7.1f%% %6.0f%% %7.1f%% %7.1f%%  %s\n",
					wl.name, d.Name, v.baseMed, v.med, 100*v.change, 100*d.Bound, 100*v.baseSpread, 100*v.sprd, v.status)
			}
		}
		for i, s := range []*runSet{base, other} {
			failed, attempted := s.failedShare()
			fmt.Fprintf(w, "# %s: %d of %d operations failed (%.3f%%)\n",
				[]string{paths[0], p}[i], failed, attempted, 100*float64(failed)/float64(max(attempted, 1)))
			if failed > 0 {
				bad++
			}
		}
	}
	if bad > 0 {
		w.Flush()
		return fmt.Errorf("%d metrics regressed or unresolved, or operations failed", bad)
	}
	return nil
}
