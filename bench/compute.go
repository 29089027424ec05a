package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	advect "repro"
	"repro/internal/grid"
	"repro/internal/stencil"
)

// schedule is one of the paper's implementations at the configuration the
// benchmark fixes for the two-core reference host (tasks × threads = 2).
type schedule struct {
	name string // metric suffix
	kind advect.Kind
	opt  advect.Options
}

var (
	t1t1   = advect.Options{Tasks: 1, Threads: 1}
	t1t2   = advect.Options{Tasks: 1, Threads: 2}
	t2t1   = advect.Options{Tasks: 2, Threads: 1}
	gpuT1  = advect.Options{Tasks: 1, Threads: 1, BlockX: 16, BlockY: 8}
	gpuT2  = advect.Options{Tasks: 2, Threads: 1, BlockX: 16, BlockY: 8}
	wideT2 = advect.Options{Tasks: 2, Threads: 1, HaloWidth: 2}
)

// schedules is in allKinds order.
var schedules = []schedule{
	{"single", advect.SingleTask, t1t2},
	{"bulk", advect.BulkSync, t2t1},
	{"nonblocking", advect.NonblockingOverlap, t2t1},
	{"threaded", advect.ThreadedOverlap, t1t2},
	{"gpu", advect.GPUResident, gpuT1},
	{"gpu_bulk", advect.GPUBulkSync, gpuT2},
	{"gpu_streams", advect.GPUStreams, gpuT2},
	{"hybrid_bulk", advect.HybridBulkSync, gpuT2},
	{"hybrid_overlap", advect.HybridOverlap, gpuT2},
	{"wide_halo", advect.WideHaloExt, wideT2},
}

// singleT1 is the plain single-thread baseline of the traced ladder.
var singleT1 = schedule{"single_t1", advect.SingleTask, t1t1}

// pick returns the named schedules, in table order.
func pick(names ...string) []schedule {
	var out []schedule
	for _, s := range schedules {
		for _, n := range names {
			if s.name == n {
				out = append(out, s)
			}
		}
	}
	return out
}

// timedSchedules are the ones every workload reports end to end; the rest
// run only in the traced ladder.
func timedSchedules() []schedule { return pick(timedKinds...) }

// ops counts operations attempted and failed. An operation that errors, is
// refused, lands in a state other than done or fails its correctness check
// is a failure and contributes to no timing.
type ops struct {
	attempted, failed int
	shown             int
}

func (o *ops) fail(format string, args ...any) {
	o.failed++
	if o.shown < 5 {
		o.shown++
		fmt.Fprintf(os.Stderr, "bench: FAILED: "+format+"\n", args...)
	}
}

// jitteredNu returns the seed's CFL number for the default velocity:
// ν_max·(1 − j·10⁻⁷). Distinct j give distinct problems (and fingerprints)
// of identical cost.
func jitteredNu(j int) float64 {
	return stencil.MaxStableNu(advect.NewProblem(8, 1).C) * (1 - float64(j)*1e-7)
}

// lane runs schedules through the library (advect.Run) on one problem and
// checks every final field against a single-task reference.
type lane struct {
	p      advect.Problem
	scheds []schedule
	verify bool // timed runs verify, as a service job of this shape does
	ref    *grid.Field
	refL2  float64
	tr     *tracer
	ops    *ops

	wall map[string]*samples // nominal-host seconds per Run call, by schedule
}

// newLane builds the problem and its reference solution: one single-task
// run with verification, which also yields the L2 error every schedule must
// reproduce.
func newLane(c *runCtx, n, steps int, nu float64, verify bool, scheds []schedule) (*lane, error) {
	p := advect.NewProblem(n, steps)
	p.Nu = nu
	opt := t1t2
	opt.Verify = true
	res, err := advect.Run(advect.SingleTask, p, opt)
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}
	return &lane{
		p: p, scheds: scheds, verify: verify, ref: res.Final, refL2: res.Norms.L2,
		tr: c.tr, ops: c.ops, wall: map[string]*samples{},
	}, nil
}

func (l *lane) points() float64 { return float64(l.p.N.Volume()) * float64(l.p.Steps) }

// run executes one schedule and checks its result. It returns the call's
// wall time, or false when the operation failed.
func (l *lane) run(s schedule, verify bool, parent, req int) (float64, bool) {
	l.ops.attempted++
	opt := s.opt
	opt.Verify = verify
	// Collect the previous run's fields now, so that no collection they
	// trigger lands inside this run's timing.
	runtime.GC()
	id := l.tr.begin("impl.run."+s.name, parent, req)
	t0 := time.Now()
	res, err := advect.Run(s.kind, l.p, opt)
	wall := time.Since(t0).Seconds()
	l.tr.end(id, l.points())
	if err != nil {
		l.ops.fail("%s %v: %v", s.name, l.p.N, err)
		return 0, false
	}
	cid := l.tr.begin("bench.check", parent, req)
	defer l.tr.end(cid, 0)
	if d := grid.DiffNorms(res.Final, l.ref).LInf; !(d <= 1e-12) {
		l.ops.fail("%s %v: final field differs from the single-task reference by %g", s.name, l.p.N, d)
		return 0, false
	}
	if verify {
		mass := math.Abs(l.ref.InteriorSum())
		if math.Abs(res.Norms.L2-l.refL2) > 1e-9*l.refL2 || !(res.MassDrift <= 1e-9*math.Max(1, mass)) {
			l.ops.fail("%s %v: l2 %g (reference %g), mass drift %g", s.name, l.p.N, res.Norms.L2, l.refL2, res.MassDrift)
			return 0, false
		}
	}
	return wall, true
}

// warm runs every schedule once, untimed and verified: the first threaded
// run of a process is slow, and each schedule's L2 error and mass drift are
// checked against the analytic solution here, outside the timed region.
func (l *lane) warm() {
	id := l.tr.begin("bench.warmup", 0, 0)
	for _, s := range l.scheds {
		l.run(s, true, id, 0)
	}
	l.tr.end(id, 0)
}

// round times every schedule of the lane once, each between two readings of
// the yardstick that convert its wall time to the nominal host.
func (l *lane) round(y *yardstick, req int) {
	y.read()
	for _, s := range l.scheds {
		wall, ok := l.run(s, l.verify, 0, req)
		factor, steady := y.nominal()
		if !ok {
			continue
		}
		if l.wall[s.name] == nil {
			l.wall[s.name] = &samples{}
		}
		l.wall[s.name].add(wall*factor, steady)
	}
}

// rotate times the lane's schedules round-robin, so that every schedule
// samples the whole run. It runs whole rounds only (every schedule has the
// same number of samples, and the operations per second of the phase do not
// depend on where in a round it ended): at least minRounds, then for as long
// as at least half of another round of the last one's length fits before the
// deadline, so that a phase ends at the deadline on average.
func (l *lane) rotate(c *runCtx, deadline time.Time, minRounds int) {
	for r := 1; ; r++ {
		t0 := time.Now()
		l.round(c.y, r)
		c.roundDone()
		if now := time.Now(); r >= minRounds && now.Add(now.Sub(t0)/2).After(deadline) {
			return
		}
	}
}

// report fills the per-schedule throughput: lattice updates of the whole
// problem over the wall time of the whole Run call (time to solution).
func (l *lane) report(m metricSet) {
	for name, walls := range l.wall {
		m.putSamples("mlups."+name, scale(reciprocals(walls.all()), l.points()/1e6))
	}
}

// totals returns the operations timed and their summed wall time.
func (l *lane) totals() (n int, sec float64) {
	for _, walls := range l.wall {
		for _, w := range walls.all() {
			n++
			sec += w
		}
	}
	return n, sec
}

// computeWorkload is steady_large and halo_small: the library user's view,
// every timed schedule of one problem through advect.Run. The warm-up and its
// verification run fewer steps.
type computeWorkload struct {
	n, steps, warmSteps  int
	minRounds            int // a run has these at least; its resident set is taken over them
	ladderSteps          int
	yardSteps, yardReads int

	lane, warm *lane
}

func (w *computeWorkload) setup(c *runCtx) error {
	nu := jitteredNu(c.rng.Intn(500_000))
	var err error
	if w.lane, err = newLane(c, w.n, w.steps, nu, false, timedSchedules()); err != nil {
		return err
	}
	w.warm, err = newLane(c, w.n, w.warmSteps, nu, true, timedSchedules())
	return err
}

func (w *computeWorkload) teardown() {}

func (w *computeWorkload) measure(c *runCtx) {
	w.warm.warm()
	w.lane.rotate(c, c.deadline(1), w.minRounds)
	w.lane.report(c.m)
	c.m.putSamples("rss_mb", c.rssOver(w.minRounds))
	if bulk := w.lane.wall["bulk"]; bulk != nil {
		c.m.putSamples("job_ms_p50", scale(bulk.all(), 1e3))
	}
	if n, sec := w.lane.totals(); sec > 0 {
		c.m.put("jobs_per_s", float64(n)/sec)
	}
}

func (w *computeWorkload) ladder() (n, steps int) { return w.n, w.ladderSteps }

func (w *computeWorkload) yardstick() (n, steps int, verify bool, reads int) {
	return w.n, w.yardSteps, false, w.yardReads
}

func reciprocals(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = 1 / x
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
