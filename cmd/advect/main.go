// Command advect runs the advection test case end to end with any of the
// paper's nine implementations and reports timing, throughput, and
// verification norms.
//
// Usage:
//
//	advect -impl hybrid-overlap -n 64 -steps 50 -tasks 4 -threads 2
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"

	"repro"
	"repro/internal/checkpoint"
	"repro/internal/core"
)

func main() {
	var (
		implName  = flag.String("impl", "single", "implementation: single, bulk, nonblocking, threaded, gpu, gpu-bulk, gpu-streams, hybrid-bulk, hybrid-overlap, wide-halo")
		n         = flag.Int("n", 64, "grid points per dimension")
		steps     = flag.Int("steps", 20, "time steps")
		tasks     = flag.Int("tasks", 1, "MPI tasks")
		threads   = flag.Int("threads", 1, "OpenMP threads per task")
		blockX    = flag.Int("blockx", 32, "GPU block x dimension")
		blockY    = flag.Int("blocky", 8, "GPU block y dimension")
		thickness = flag.Int("thickness", 1, "CPU box thickness (hybrid implementations)")
		haloWidth = flag.Int("halowidth", 2, "exchange depth W (wide-halo extension implementation)")
		tasksGPU  = flag.Int("taskspergpu", 0, "MPI tasks sharing one simulated GPU (0 = one device per task)")
		gpuName   = flag.String("gpu", "c2050", "simulated GPU: c1060 or c2050")
		verify    = flag.Bool("verify", true, "compare against the analytic solution")
		timeout   = flag.Duration("timeout", 0, "abort the run, -mintime calibration included, if it exceeds this duration (0 = no limit); cancellation is checked between timesteps")
		minTime   = flag.Duration("mintime", 0, "calibrate the step count so the measurement runs at least this long (the paper's methodology; overrides -steps)")
		trace     = flag.String("trace", "", "record per-rank phase spans, print the overlap report with the per-rank load-imbalance/straggler section, and write a Chrome trace-event JSON (open in ui.perfetto.dev) to this file")
		saveCkpt  = flag.String("save", "", "write a checkpoint of the final state to this file")
		loadCkpt  = flag.String("load", "", "resume from a checkpoint file (overrides -n)")
		list      = flag.Bool("list", false, "list implementations and exit")
	)
	flag.Parse()

	if *list {
		for _, k := range advect.Kinds() {
			fmt.Printf("%-16s %s: %s\n", k.String(), k.Section(), k.Describe())
		}
		fmt.Printf("%-16s %s: %s\n", core.WideHaloExt.String(), "ext", core.WideHaloExt.Describe())
		return
	}

	kind, err := advect.ParseKind(*implName)
	if err != nil {
		fatal(err)
	}
	gpu, err := core.ParseGPU(*gpuName)
	if err != nil {
		fatal(err)
	}

	p := advect.NewProblem(*n, *steps)
	if *loadCkpt != "" {
		m, f, err := checkpoint.LoadFile(*loadCkpt)
		if err != nil {
			fatal(err)
		}
		p = checkpoint.Resume(m, f, *steps)
		fmt.Printf("resumed from %s: %v, %d steps already integrated (t=%g)\n",
			*loadCkpt, m.N, m.StepsDone, m.T0)
	}
	var rec *advect.Recorder
	if *trace != "" {
		rec = advect.NewRecorder()
	}
	o := advect.Options{
		Tasks: *tasks, Threads: *threads,
		BlockX: *blockX, BlockY: *blockY,
		BoxThickness: *thickness,
		HaloWidth:    *haloWidth,
		TasksPerGPU:  *tasksGPU,
		GPU:          gpu,
		Verify:       *verify,
		Rec:          rec,
	}
	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	if *minTime > 0 {
		// Paper §II: vary the number of steps until the measurement runs
		// long enough — at least 5 seconds in the paper. The probes run
		// under the same deadline as the measurement.
		probe := func(n int) (time.Duration, error) {
			pp := p
			pp.Steps = n
			oo := o
			oo.Verify = false
			oo.Rec = nil // don't pollute the trace with calibration runs
			r, err := advect.RunContext(ctx, kind, pp, oo)
			if err != nil {
				return 0, err
			}
			return r.Elapsed, nil
		}
		n, err := calibrateSteps(probe, *minTime)
		if err != nil {
			fatal(fmt.Errorf("calibrating -mintime: %w", err))
		}
		fmt.Printf("calibrated step count: %d (target %v)\n", n, *minTime)
		p.Steps = n
	}
	res, err := advect.RunContext(ctx, kind, p, o)
	if err != nil {
		fatal(err)
	}
	if *saveCkpt != "" {
		m, f, err := checkpoint.FromResult(p, res)
		if err != nil {
			fatal(err)
		}
		if err := checkpoint.SaveFile(*saveCkpt, m, f); err != nil {
			fatal(err)
		}
		fmt.Printf("checkpoint written to %s (t=%g)\n", *saveCkpt, m.T0)
	}

	fmt.Printf("implementation : %s (%s, %s)\n", kind, kind.Section(), kind.Describe())
	fmt.Printf("grid           : %v, %d steps, 53 flops/point\n", p.N, p.Steps)
	// What ran, not the flags: the run normalises and clamps its options.
	st := res.Stats
	fmt.Printf("configuration  : %g tasks x %g threads", st["tasks"], st["threads"])
	if kind.UsesGPU() {
		fmt.Printf(", %gx%g blocks on %s", st["blockx"], st["blocky"], *gpuName)
	}
	if th, ok := st["thickness"]; ok {
		fmt.Printf(", box thickness %g", th)
	}
	fmt.Println()
	fmt.Printf("elapsed        : %v (%.2f GF functional)\n", res.Elapsed, res.GF)
	if *verify {
		fmt.Printf("error L2       : %.3e\n", res.Norms.L2)
		fmt.Printf("error LInf     : %.3e\n", res.Norms.LInf)
		fmt.Printf("mass drift     : %.3e\n", res.MassDrift)
	}
	keys := make([]string, 0, len(res.Stats))
	for k := range res.Stats {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("stat %-14s: %g\n", k, res.Stats[k])
	}
	if rec != nil {
		f, err := os.Create(*trace)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		rec.Report().WriteText(os.Stdout)
		fmt.Printf("chrome trace written to %s (open in ui.perfetto.dev)\n", *trace)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "advect:", err)
	os.Exit(1)
}

// defaultTarget is the paper's minimum measurement duration (§II: "at
// least 5 seconds per measurement").
const defaultTarget = 5 * time.Second

// calibrateSteps returns a step count whose measurement should take at
// least target. step runs n steps and reports the stepping loop's wall
// time; its error ends the calibration. It probes with geometrically
// growing counts until a probe takes at least 1% of the target, then
// extrapolates with 10% headroom.
func calibrateSteps(step func(n int) (time.Duration, error), target time.Duration) (int, error) {
	if target <= 0 {
		target = defaultTarget
	}
	const maxSteps = 1 << 24
	probeFloor := target / 100
	for n := 1; n <= maxSteps; n *= 4 {
		d, err := step(n)
		if err != nil {
			return 0, err
		}
		if d <= 0 {
			continue
		}
		if d >= target {
			return n, nil
		}
		if d >= probeFloor {
			perStep := d / time.Duration(n)
			if perStep <= 0 {
				perStep = time.Nanosecond
			}
			need := int(float64(target)/float64(perStep)*1.1) + 1
			if need < n {
				need = n
			}
			if need > maxSteps {
				need = maxSteps
			}
			return need, nil
		}
	}
	return 0, fmt.Errorf("steps too fast to calibrate against %v", target)
}
