// Command advectbench is the repository's benchmark: three workloads that
// measure, from outside, what users of the advection reproduction pay for —
// time to solution per schedule through the library and job latency and
// throughput through advectd, each against the benchmark's own reference
// solver timed in the same round — and, with -trace 1, one probe per module a
// request crosses, checkpointed sessions included. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"
)

// sizes fixes every problem size of the benchmark. They are a table for the
// two-core reference host, not scaled by the machine the benchmark runs on.
type sizes struct {
	largeN, largeSteps, largeWarm int           // steady_large and the steps of its warm-up
	smallN, smallSteps, smallWarm int           // halo_small likewise
	largeYard, smallYard          int           // steps of the two workloads' yardstick
	jobN, jobSteps                int           // serve_mix simulate jobs
	sessN, sessSteps, sessSegment int           // sessions of the traced runs' session pass
	probeN                        int           // the "n128" of the module probes
	probeDur                      time.Duration // length of one probe batch
	ladderLarge, ladderSmall      int           // S of the traced ladder's S- and 2S-step runs
}

var fullSizes = sizes{
	largeN: 128, largeSteps: 16, largeWarm: 4,
	smallN: 16, smallSteps: 2400, smallWarm: 600,
	largeYard: 8, smallYard: 1200,
	jobN: 48, jobSteps: 10,
	sessN: 96, sessSteps: 60, sessSegment: 5,
	probeN: 128, probeDur: 15 * time.Millisecond,
	ladderLarge: 3, ladderSmall: 400,
}

// smokeSizes drives every path once on tiny grids, for the tests.
var smokeSizes = sizes{
	largeN: 16, largeSteps: 2, largeWarm: 1,
	smallN: 8, smallSteps: 4, smallWarm: 1,
	largeYard: 1, smallYard: 2,
	jobN: 12, jobSteps: 2,
	sessN: 12, sessSteps: 6, sessSegment: 2,
	probeN: 32, probeDur: 250 * time.Microsecond,
	ladderLarge: 1, ladderSmall: 2,
}

// pass is a set of inputs the benchmark can set up, measure and take down.
type pass interface {
	// setup builds the inputs from the seed, computes reference solutions
	// and starts whatever serves the requests. It is what setup_s times.
	setup(c *runCtx) error
	teardown()
	// measure warms up, runs the timed phases and records the metrics.
	measure(c *runCtx)
}

// workload is a pass the driver can name.
type workload interface {
	pass
	// ladder is the problem the traced per-schedule ladder runs at S and
	// at 2S steps: the grid of the workload's own unit of work.
	ladder() (n, steps int)
	// yardstick is the reference solver's problem for this workload: the
	// workload's grid, for long enough to tell the host's speed; a reading
	// is the median of reads runs of it.
	yardstick() (n, steps int, verify bool, reads int)
}

var workloadWhy = []struct{ name, why string }{
	{"steady_large", "128^3 x 16 steps per schedule through advect.Run: fields 4x the summed L2, kernel and copy sweep are >=80% of a CPU step, so kernel, copy-removal and temporal-blocking work shows here"},
	{"halo_small", "16^3 x 2400 steps per schedule: the same runners with the kernel <=40% of a multi-task step, so pack/unpack, mailbox, barrier and fork-join cost shows here and kernel work barely does"},
	{"serve_mix", "closed-loop mix of cached/uncached predicts and 48^3 x 10 simulate jobs against advectd on loopback: run set-up, gather, verify, queueing and polling dominate; stepping is under 35% of a job"},
}

func newWorkload(name string, sz sizes) (workload, error) {
	switch name {
	case "steady_large":
		return &computeWorkload{n: sz.largeN, steps: sz.largeSteps, warmSteps: sz.largeWarm,
			ladderSteps: sz.ladderLarge, yardSteps: sz.largeYard, yardReads: 1, minRounds: 4}, nil
	case "halo_small":
		return &computeWorkload{n: sz.smallN, steps: sz.smallSteps, warmSteps: sz.smallWarm,
			ladderSteps: sz.ladderSmall, yardSteps: sz.smallYard, yardReads: 3, minRounds: 8}, nil
	case "serve_mix":
		return &serveMix{n: sz.jobN, steps: sz.jobSteps, scheds: timedSchedules()}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// runCtx carries one run's inputs and collects its outputs.
type runCtx struct {
	ctx     context.Context
	seed    uint64
	rng     *rand.Rand
	seconds float64 // budget of the timed phases
	trace   bool
	sz      sizes
	outDir  string
	tr      *tracer
	ops     *ops
	m       metricSet
	y       *yardstick // nil in a warm-up or a short pass: nothing is converted
	rss     []float64  // the process's resident set in MB at the end of every round
}

func newRunCtx(ctx context.Context, seed uint64, seconds float64, trace bool, sz sizes, outDir string) *runCtx {
	return &runCtx{ctx: ctx, seed: seed, rng: newRNG(seed), seconds: seconds, trace: trace, sz: sz,
		outDir: outDir, tr: newTracer(trace), ops: &ops{}, m: metricSet{}}
}

// deadline returns the end of a phase that may use share of the budget.
func (c *runCtx) deadline(share float64) time.Time {
	return time.Now().Add(time.Duration(share * c.seconds * float64(time.Second)))
}

// roundDone records the process's resident set at the end of a round.
func (c *runCtx) roundDone() { c.rss = append(c.rss, rssMB()) }

// rssOver returns the resident set at the end of each of the first n rounds:
// a run's memory is compared over the work every run does, not over however
// much more the host's speed let it do.
func (c *runCtx) rssOver(n int) []float64 { return c.rss[:min(n, len(c.rss))] }

// scratch returns a context whose traffic counts for nothing: warm-up.
func (c *runCtx) scratch() *runCtx {
	return &runCtx{ctx: c.ctx, seed: c.seed + 1, ops: &ops{}, m: metricSet{}}
}

// sub returns a context for a short pass of another workload inside this
// run: same tracer and operation counts, its own budget.
func (c *runCtx) sub(seconds float64) *runCtx {
	s := *c
	s.seconds = seconds
	s.rng = newRNG(c.seed + 0x5eed)
	s.y = nil
	return &s
}

// result is what one run reports; its last-line JSON is the driver's input.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// Set-up is repeated for the median setup_s: three times at least, and up to
// twenty-five while the repetitions so far have taken under two seconds, so
// that a set-up of milliseconds is not judged by three samples. Each
// repetition sits between two readings of the yardstick and counts in
// nominal-host seconds, like every other timing.
const (
	minSetupRepeats = 3
	maxSetupRepeats = 25
	setupBudget     = 2.0 // seconds
)

// runOne executes one workload once and returns its metrics: the end-to-end
// set when trace is off, the per-layer set when it is on.
func runOne(ctx context.Context, name string, seed uint64, seconds float64, trace bool, sz sizes, outDir string) (result, error) {
	w, err := newWorkload(name, sz)
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	c := newRunCtx(ctx, seed, seconds, trace, sz, outDir)
	yn, ysteps, yverify, yreads := w.yardstick()
	c.y = newYardstick(c, yn, ysteps, yverify, yreads)
	spin0 := spinMS()

	// Set-up, repeated with the same seed so that each repetition builds
	// the same inputs; the last one stays up for the measurement.
	var setups samples
	var setupSum float64
	for i := 0; i < minSetupRepeats || (i < maxSetupRepeats && setupSum < setupBudget); i++ {
		if i > 0 {
			w.teardown()
		}
		c.rng = newRNG(seed)
		if i == 0 {
			c.y.read()
		}
		runtime.GC() // every repetition starts from a collected heap, as the first does
		id := c.tr.begin("bench.setup", 0, i+1)
		t0 := time.Now()
		err := w.setup(c)
		sec := time.Since(t0).Seconds()
		c.tr.end(id, 0)
		factor, steady := c.y.nominal()
		setups.add(sec*factor, steady)
		setupSum += sec
		if err != nil {
			w.teardown()
			return result{}, fmt.Errorf("%s: set-up: %w", name, err)
		}
	}
	defer w.teardown()
	c.m.putSamples("setup_s", setups.all())

	if trace {
		c.seconds = seconds * 0.4 // the probes below need the rest
	}
	t0 := time.Now()
	w.measure(c)
	nativeWall := time.Since(t0).Seconds()
	nativeSpans := c.tr.len()
	c.m.putSamples("host.ref_mlups", c.y.mlups)

	if trace {
		moduleProbes(c, w)
		otherPaths(c, name, seconds)
		c.m.put("bench.trace_overhead_frac", traceOverhead(c, nativeSpans, nativeWall))
	}
	spin1 := spinMS()
	c.m.put("host.spin_ms", math.Min(spin0, spin1))
	noisy := math.Abs(spin1-spin0) > 0.1*math.Min(spin0, spin1)

	defs := endToEnd()
	if trace {
		defs = perLayer()
	}
	metrics, err := c.m.finish(defs)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	meta := map[string]any{"workload": name, "seed": seed, "seconds": seconds, "host": hostInfo(),
		"noisy": noisy, "attempted": c.ops.attempted, "failed": c.ops.failed}
	if err := c.tr.write(filepath.Join(outDir, "trace-"+name+".json"), meta); err != nil {
		return result{}, err
	}
	host := hostInfo()
	fmt.Printf("# host: nproc=%v GOMAXPROCS=%v %v %v cpu=%q\n", host["nproc"], host["gomaxprocs"], host["go"], host["os"], host["cpu"])
	fmt.Printf("# %s seed=%d seconds=%g trace=%v noisy=%v spin_ms=%.2f/%.2f ref_mlups=%.1f host_changed_speed=%d/%d ops_attempted=%d ops_failed=%d\n",
		name, seed, seconds, trace, noisy, spin0, spin1, median(c.y.mlups), c.y.changed, c.y.changed+c.y.steady, c.ops.attempted, c.ops.failed)
	printMetrics(metrics, defs)
	return result{Correct: c.ops.failed == 0, Attempted: c.ops.attempted, Failed: c.ops.failed, Metrics: metrics}, nil
}

// moduleProbes times the modules below the serving stack one call at a time
// and runs the per-schedule ladder at the workload's problem size. Nothing
// here crosses internal/service.
func moduleProbes(c *runCtx, w workload) {
	probeHost(c)
	probeStencil(c)
	probeGrid(c)
	probeMPI(c)
	probePar(c)
	probeGPU(c)
	probeCheckpoint(c)
	probeObsPerf(c)
	ladder(c, w)
}

// otherPaths gives a traced run the service, cluster and session numbers of
// the paths its own workload does not take, from a short pass of each.
func otherPaths(c *runCtx, name string, seconds float64) {
	short := func(w pass, share float64) {
		s := c.sub(seconds * share)
		if err := w.setup(s); err != nil {
			c.ops.attempted++
			c.ops.fail("short pass: %v", err)
		} else {
			w.measure(s)
		}
		w.teardown()
	}
	if name != "serve_mix" {
		short(&serveMix{n: c.sz.jobN, steps: c.sz.jobSteps, scheds: pick("bulk")}, 0.15)
	}
	short(&sessionCkpt{n: c.sz.sessN, steps: c.sz.sessSteps, segment: c.sz.sessSegment}, 0.1)
}

// traceOverhead is the share of the traced native phase spent recording
// bench-side spans: the cost of one span, measured here, times the spans
// recorded, over the phase's wall time.
func traceOverhead(c *runCtx, spans int, nativeWall float64) float64 {
	probeTr := newTracer(true)
	per := timeOp(probeReps, c.sz.probeDur, func() { probeTr.end(probeTr.begin("x", 0, 0), 0) })
	return per * float64(spans) / nativeWall
}

func printMetrics(ms metricSet, defs []metricDef) {
	fmt.Printf("%-36s %-7s %5s %14s %14s %14s  %s\n", "metric", "unit", "n", "q1", "median", "q3", "tail")
	for _, d := range defs {
		s := ms[d.Name]
		fmt.Printf("%-36s %-7s %5d %14.6g %14.6g %14.6g", d.Name, d.Unit, s.N, s.Q1, s.Value, s.Q3)
		if s.TailP > 50 {
			fmt.Printf("  p%g=%.6g", s.TailP, s.Tail)
		}
		fmt.Println()
	}
}

func main() {
	var (
		names   = flag.String("workload", "", "workloads to run, comma-separated; empty means all three")
		seed    = flag.Uint64("seed", 1, "seed of the ν-jitter sequence and the traffic-mix order")
		seconds = flag.Float64("seconds", runSeconds, "how long one run measures")
		trace   = flag.Int("trace", 0, "1 records bench-side spans, runs the module probes and reports the per-layer metrics")
		runs    = flag.Int("runs", 0, "runs per workload of a set, each a fresh child process with the next seed; 0 runs a single -workload in this process and prints the driver's result line, and means 1 otherwise")
		out     = flag.String("out", "", "also write the set of runs to this file, for -compare")
		compare = flag.Bool("compare", false, "compare sets of runs written by -out: advectbench -compare A.json B.json ...")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json as generated from the metric tables")
		burner  = flag.Bool("burn", false, "be a burner (burn.go): spin at idle priority until standard input closes")
	)
	flag.Parse()
	ctx := context.Background()
	var err error
	switch {
	case *burner:
		err = burn()
	case *spec:
		err = printSpec()
	case *compare:
		err = compareSets(flag.Args())
	case *runs == 0 && *names != "" && !strings.Contains(*names, ","):
		var res result
		b, berr := startBurners(ctx)
		if berr != nil {
			fmt.Println("# no burners, vCPUs may idle:", berr)
		}
		// Traces and scratch files go to bench/out under the checkout's root.
		res, err = runOne(ctx, *names, *seed, *seconds, *trace != 0, fullSizes, filepath.Join("bench", "out"))
		b.stop()
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
	default:
		var selected []string
		selected, err = selectWorkloads(*names)
		if err == nil {
			err = runAll(ctx, selected, *seed, *seconds, *trace, max(*runs, 1), *out)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "advectbench:", err)
		os.Exit(1)
	}
}

// selectWorkloads returns the workloads a comma-separated list names, in
// table order; an empty list names them all.
func selectWorkloads(list string) ([]string, error) {
	var all, out []string
	for _, w := range workloadWhy {
		all = append(all, w.name)
	}
	if list == "" {
		return all, nil
	}
	want := strings.Split(list, ",")
	for _, name := range want {
		if !slices.Contains(all, name) {
			return nil, fmt.Errorf("unknown workload %q", name)
		}
	}
	for _, name := range all {
		if slices.Contains(want, name) {
			out = append(out, name)
		}
	}
	return out, nil
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricDef    `json:"end_to_end"`
	PerLayer   []metricDef    `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 36

func currentSpec() benchSpec {
	s := benchSpec{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd(),
		PerLayer:   perLayer(),
	}
	for _, w := range workloadWhy {
		s.Workloads = append(s.Workloads, workloadSpec{w.name, w.why})
	}
	return s
}

func printSpec() error {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	enc.SetEscapeHTML(false)
	return enc.Encode(currentSpec())
}
