package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sync"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) returns, since the driver judges spreads
// with that function.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, [3]float64{2, 8, 32}},
		{[]float64{5}, [3]float64{5, 5, 5}},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(med, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, med, q3, c.want)
		}
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(s, 1) {
		t.Errorf("spread = %v, want 1", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1, 11: 2} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(%v) = %v, want %v", p, got, want)
		}
	}
}

// TestTailPercentile checks the rule "the highest percentile that still has
// at least ten samples beyond it".
func TestTailPercentile(t *testing.T) {
	for n, want := range map[int]float64{5: 50, 20: 50, 39: 50, 40: 75, 99: 75, 100: 90, 199: 90, 200: 95, 1000: 99, 10000: 99.9} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %v, want %v", n, got, want)
		}
	}
}

// TestSeededInputs checks that the generated inputs are a function of the
// seed alone: the order of the mix repeats, differs between seeds, every
// block carries the exact shares, and the ν jitter gives distinct stable
// problems.
func TestSeededInputs(t *testing.T) {
	draw := func(seed uint64) []int {
		r := newRNG(seed)
		var out []int
		for b := 0; b < 50; b++ {
			block := nextBlock(r)
			var count [numClasses]int
			for _, class := range block {
				count[class]++
			}
			if count != classCount {
				t.Fatalf("seed %d block %d carries %v, want %v", seed, b, count, classCount)
			}
			out = append(out, block...)
		}
		return out
	}
	a, b, c := draw(7), draw(7), draw(8)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed drew a different mix")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds drew the same mix")
	}
	if jitteredNu(3) != jitteredNu(3) || jitteredNu(3) == jitteredNu(4) || !(jitteredNu(400_000) > 0) {
		t.Error("ν jitter is not a distinct, stable, positive function of j")
	}
}

// TestSelfTime checks that a span's self time is its duration minus the
// part of its interval its children cover, counting overlapping children
// once and ignoring what sticks out past the parent.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "parent", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "child", Start: 1, End: 3},
		{ID: 3, Parent: 1, Name: "child", Start: 2, End: 5},
		{ID: 4, Parent: 1, Name: "late", Start: 8, End: 12},
		{ID: 5, Parent: 3, Name: "grandchild", Start: 2.5, End: 3.5, Work: 7},
	}
	got := map[string]layerTime{}
	for _, lt := range selfTimes(spans) {
		got[lt.Name] = lt
	}
	want := map[string]layerTime{
		"parent":     {Name: "parent", Count: 1, Total: 10, Self: 4},
		"child":      {Name: "child", Count: 2, Total: 5, Self: 4},
		"late":       {Name: "late", Count: 1, Total: 4, Self: 4},
		"grandchild": {Name: "grandchild", Count: 1, Total: 1, Self: 1, Work: 7},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %+v\nwant %+v", got, want)
	}
	tr := newTracer(false)
	if id := tr.begin("x", 0, 0); id != 0 || tr.len() != 0 {
		t.Error("a disabled tracer recorded a span")
	}
}

// TestSharedStateConcurrent uses the tracer and a counter from several
// goroutines at once, as the closed-loop clients do.
func TestSharedStateConcurrent(t *testing.T) {
	tr, ctr := newTracer(true), &counter{}
	const workers, each = 4, 200
	var wg sync.WaitGroup
	root := tr.begin("root", 0, 0)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				tr.end(tr.begin("op", root, ctr.take()), 1)
			}
		}()
	}
	wg.Wait()
	tr.end(root, 0)
	if got := ctr.take(); got != workers*each+1 {
		t.Errorf("counter handed out %d values, want %d", got-1, workers*each)
	}
	reqs := map[int]bool{}
	for _, s := range tr.spans[1:] {
		reqs[s.Req] = true
	}
	if tr.len() != workers*each+1 || len(reqs) != workers*each {
		t.Errorf("%d spans with %d distinct request ids, want %d and %d", tr.len(), len(reqs), workers*each+1, workers*each)
	}
}

// TestRefSolve checks the reference solver the timings are divided by: it
// conserves the field's sum over an odd and an even number of steps, gives
// the same answer twice, and smooths the Gaussian it started from.
func TestRefSolve(t *testing.T) {
	const n = 12
	start := refSolve(n, 0, true)
	if !(start > 0) || refL2 != 0 {
		t.Fatalf("sum %v and distance %v of the initial field", start, refL2)
	}
	for _, steps := range []int{1, 2, 7} {
		a, l2 := refSolve(n, steps, true), refL2
		b := refSolve(n, steps, false)
		if a != b || math.Abs(a-start) > 1e-12*start {
			t.Errorf("%d steps: sums %v and %v, want %v both times", steps, a, b, start)
		}
		if !(l2 > 0) {
			t.Errorf("%d steps: the field is at distance %v from where it started", steps, l2)
		}
	}
}

// TestYardstick checks the conversion to the nominal host: an operation
// bracketed by readings of a host twice as fast as the nominal one counts
// double, readings that disagree mark it as not steady, too few steady
// samples bring the others back, and no yardstick changes nothing.
func TestYardstick(t *testing.T) {
	c := newRunCtx(context.Background(), 1, 0.1, false, smokeSizes, t.TempDir())
	y := newYardstick(c, 8, 2, false, 3)
	y.read()
	if len(y.mlups) != 3 || !near(y.speed, median(y.mlups)/refNominalMLUPS) {
		t.Errorf("after one reading: %d runs, speed %v", len(y.mlups), y.speed)
	}
	y.speed = 1e9 // no reading agrees with this one
	if _, steady := y.nominal(); steady || y.changed != 1 {
		t.Errorf("readings a factor apart counted as steady")
	}
	before := y.speed
	factor, _ := y.nominal()
	if !near(factor, (before+y.speed)/2) {
		t.Errorf("factor %v, want the mean of %v and %v", factor, before, y.speed)
	}
	var none *yardstick
	none.read()
	if factor, steady := none.nominal(); factor != 1 || !steady {
		t.Errorf("no yardstick gave factor %v, steady %v", factor, steady)
	}
	if c.ops.failed != 0 || c.ops.attempted != 9 {
		t.Errorf("%d of %d runs of the reference solver failed", c.ops.failed, c.ops.attempted)
	}

	var s samples
	s.add(1, true)
	s.add(2, false)
	s.add(3, true)
	if got := s.all(); len(got) != 3 {
		t.Errorf("two steady samples: all() = %v, want all three", got)
	}
	s.add(4, true)
	if got := s.all(); !reflect.DeepEqual(got, []float64{1, 3, 4}) {
		t.Errorf("three steady samples: all() = %v, want them alone", got)
	}
}

func TestJudge(t *testing.T) {
	lat := metricDef{Name: "job_ms_p50", Better: lower, Bound: 0.10}
	thr := metricDef{Name: "mlups.bulk", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(f float64) []float64 { return scale(steady, f) }
	noisy := []float64{80, 120, 90, 110, 100, 70, 130, 95, 105, 100}
	cases := []struct {
		d           metricDef
		base, other []float64
		want        string
	}{
		{lat, steady, shift(1.05), statusOK},
		{lat, steady, shift(1.2), statusRegression},
		{lat, steady, shift(0.8), statusBetter},
		{thr, steady, shift(0.8), statusRegression},
		{thr, steady, shift(1.2), statusBetter},
		{thr, steady, noisy, statusUnresolved},
		{lat, noisy, shift(0.5), statusBetter}, // every run better than every base run
	}
	for i, c := range cases {
		if got := judge(c.d, c.base, c.other); got.status != c.want {
			t.Errorf("case %d: %s, want %s (%+v)", i, got.status, c.want, got)
		}
	}
}

// TestSpecMatchesBenchmarkJSON keeps BENCHMARK.json, which the driver reads,
// in step with the metric tables the program reports from, and inside the
// limits the driver enforces.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec := currentSpec()
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n, u string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("bad or repeated name %q", n)
		}
		seen[n] = true
		if u != "" && !unit.MatchString(u) {
			t.Errorf("bad unit %q of %s", u, n)
		}
	}
	for _, w := range spec.Workloads {
		check(w.Name, "")
		if len(w.Why) > 200 {
			t.Errorf("why of %s has %d characters", w.Name, len(w.Why))
		}
	}
	// The driver caps every bound at 25 % and wants set-up time to carry
	// the largest.
	if d := spec.EndToEnd[0]; d.Name != "setup_s" || d.Unit != "s" || d.Better != lower {
		t.Errorf("first end-to-end metric is %+v, want setup_s", d)
	}
	for _, d := range spec.EndToEnd {
		check(d.Name, d.Unit)
		if d.Bound <= 0 || d.Bound > 0.25 || d.Bound > spec.EndToEnd[0].Bound {
			t.Errorf("bound %v of %s", d.Bound, d.Name)
		}
	}
	for _, d := range spec.PerLayer {
		check(d.Name, d.Unit)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}

	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skipf("no BENCHMARK.json beside bench/: %v", err)
	}
	var onDisk benchSpec
	if err := json.Unmarshal(data, &onDisk); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(onDisk, spec) {
		t.Error("BENCHMARK.json differs from the metric tables; regenerate it with: bash bench/run.sh -spec > BENCHMARK.json")
	}
}

// TestSmoke drives every workload once with tiny grids, with tracing off
// and on: every path and probe runs, every metric is reported, and no
// operation fails its correctness check.
//
// Under the race detector only the library workloads are driven: every job
// submitted to internal/service races on Job.queuedAt (SubmitTraced writes
// it after the queue push, at server.go:337, while a worker may already
// read it in runJob, at server.go:380). That race is the program's, found by
// this smoke run and recorded in README.md; TestModuleProbes and
// TestSharedStateConcurrent cover the rest under the detector instead.
func TestSmoke(t *testing.T) {
	for i, w := range workloadWhy {
		for _, trace := range []bool{false, true} {
			if raceDetector && (trace || i >= 2) {
				continue
			}
			res, err := runOne(context.Background(), w.name, 1, 0.1, trace, smokeSizes, t.TempDir())
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d operations failed", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			want := endToEnd()
			if trace {
				want = perLayer()
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, d := range want {
				if s, ok := res.Metrics[d.Name]; !ok || math.IsNaN(s.Value) || math.IsInf(s.Value, 0) {
					t.Errorf("%s trace=%v: metric %s = %v", w.name, trace, d.Name, s.Value)
				}
			}
		}
	}
}

// TestModuleProbes drives the part of a traced run that does not cross
// internal/service — every module probe and the ladder — so that it runs
// under the race detector too. Without the detector TestSmoke covers it.
func TestModuleProbes(t *testing.T) {
	if !raceDetector {
		t.Skip("covered by TestSmoke's traced runs")
	}
	c := newRunCtx(context.Background(), 1, 0.1, true, smokeSizes, t.TempDir())
	w, err := newWorkload("halo_small", smokeSizes)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.setup(c); err != nil {
		t.Fatal(err)
	}
	defer w.teardown()
	moduleProbes(c, w)
	if c.ops.failed != 0 || c.ops.attempted < 1 {
		t.Errorf("%d of %d operations failed", c.ops.failed, c.ops.attempted)
	}
	probed := regexp.MustCompile(`^(host\.(copy|triad)|stencil|grid|mpi|par|gpusim|impl|checkpoint|perf|obs\.span_ns)`)
	for _, d := range perLayer() {
		if _, ok := c.m[d.Name]; probed.MatchString(d.Name) && !ok {
			t.Errorf("metric %s not measured", d.Name)
		}
	}
}
