package perf

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
)

// bestOverThreads returns the best GF over the machine's thread choices
// (and box thicknesses for the hybrid implementations).
func bestOverThreads(m *machine.Machine, k core.Kind, cores int) (float64, int, int) {
	bestGF, bestT, bestW := 0.0, 0, 0
	for _, t := range m.ThreadChoices {
		if cores%t != 0 {
			continue
		}
		thicks := []int{1}
		if k == core.HybridBulkSync || k == core.HybridOverlap {
			thicks = []int{1, 2, 3, 5, 8}
		}
		for _, w := range thicks {
			e, err := Evaluate(Config{M: m, Kind: k, Cores: cores, Threads: t, BoxThickness: w, BlockX: 32, BlockY: 8})
			if err != nil {
				continue
			}
			if e.GF > bestGF {
				bestGF, bestT, bestW = e.GF, t, w
			}
		}
	}
	return bestGF, bestT, bestW
}

func TestEvaluateBasics(t *testing.T) {
	for _, m := range machine.All() {
		for _, k := range core.Kinds() {
			if k.UsesGPU() && !m.HasGPU() {
				continue
			}
			cores := m.Node.Cores()
			e, err := Evaluate(Config{M: m, Kind: k, Cores: cores, Threads: 1})
			if err != nil {
				t.Fatalf("%s/%v: %v", m.Name, k, err)
			}
			if e.StepSec <= 0 || math.IsNaN(e.StepSec) || math.IsInf(e.StepSec, 0) {
				t.Fatalf("%s/%v: bad step time %v", m.Name, k, e.StepSec)
			}
			if e.GF <= 0 {
				t.Fatalf("%s/%v: bad GF %v", m.Name, k, e.GF)
			}
			if len(e.Breakdown) == 0 {
				t.Fatalf("%s/%v: empty breakdown", m.Name, k)
			}
		}
	}
}

func TestEvaluateErrors(t *testing.T) {
	jag := machine.JaguarPF()
	if _, err := Evaluate(Config{M: jag, Kind: core.BulkSync, Cores: 0, Threads: 1}); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := Evaluate(Config{M: jag, Kind: core.BulkSync, Cores: 13, Threads: 6}); err == nil {
		t.Fatal("indivisible cores accepted")
	}
	if _, err := Evaluate(Config{M: jag, Kind: core.GPUResident, Cores: 12, Threads: 1}); err == nil {
		t.Fatal("GPU implementation on GPU-less machine accepted")
	}
	yona := machine.Yona()
	if _, err := Evaluate(Config{M: yona, Kind: core.HybridOverlap, Cores: 12, Threads: 1, BoxThickness: 300}); err == nil {
		t.Fatal("absurd thickness accepted")
	}
	// 18456 = 2³·3·769 tasks: 769 exceeds every extent of the paper's grid,
	// so no task grid fits. An error, not grid.NewDecomp's panic.
	if _, err := Evaluate(Config{M: jag, Kind: core.BulkSync, Cores: 18456, Threads: 1}); err == nil {
		t.Fatal("task count with no feasible decomposition accepted")
	}
}

// TestThinTasksAreAllBoundary: nine tasks on a 3³ grid own three points
// each in a row, none of which is interior, so the overlap schedules'
// boundary term charges all three.
func TestThinTasksAreAllBoundary(t *testing.T) {
	jag := machine.JaguarPF()
	want := cpuCompute(jag.Node, 3, 1) * boundaryPenalty
	for _, k := range []core.Kind{core.NonblockingOverlap, core.ThreadedOverlap} {
		e, err := Evaluate(Config{M: jag, Kind: k, Cores: 9, Threads: 1, N: grid.Uniform(3)})
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := e.Breakdown["boundary"]; got != want {
			t.Errorf("%v: boundary term %g s, want %g s (3 points)", k, got, want)
		}
	}
}

// --- Section V-E calibration anchors (Yona, one node) ----------------------

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if got < want*(1-tol) || got > want*(1+tol) {
		t.Fatalf("%s = %.1f GF, want %.1f ± %.0f%%", name, got, want, tol*100)
	}
}

func TestSectionVEAnchors(t *testing.T) {
	yona := machine.Yona()
	// "the best GPU-resident performance on Yona is 86 GF"
	best := 0.0
	for _, bx := range []int{16, 32, 64, 128} {
		for by := 1; by <= 32; by++ {
			e, err := Evaluate(Config{M: yona, Kind: core.GPUResident, BlockX: bx, BlockY: by})
			if err == nil && e.GF > best {
				best = e.GF
			}
		}
	}
	within(t, "Yona GPU-resident best", best, 86, 0.10)

	// "cuts the performance to 24 and 35 GF, respectively"
	f, _, _ := bestOverThreads(yona, core.GPUBulkSync, 12)
	within(t, "Yona 1-node GPU bulk-sync (F)", f, 24, 0.15)
	g, _, _ := bestOverThreads(yona, core.GPUStreams, 12)
	within(t, "Yona 1-node GPU streams (G)", g, 35, 0.15)

	// "The best CPU-GPU overlap performance on one node is 82 GF"
	i, _, _ := bestOverThreads(yona, core.HybridOverlap, 12)
	within(t, "Yona 1-node hybrid overlap (I)", i, 82, 0.15)

	// The ordering of §V-E: F < G < I ≈ resident.
	if !(f < g && g < i && i < best*1.05) {
		t.Fatalf("V-E ordering broken: F=%.1f G=%.1f I=%.1f resident=%.1f", f, g, i, best)
	}
}

// --- Figure 3/4 shapes ------------------------------------------------------

func crossover(t *testing.T, m *machine.Machine, counts []int) int {
	t.Helper()
	// Returns the first core count at which bulk beats nonblocking.
	for _, cores := range counts {
		b, _, _ := bestOverThreads(m, core.BulkSync, cores)
		c, _, _ := bestOverThreads(m, core.NonblockingOverlap, cores)
		if b > c {
			return cores
		}
	}
	return 1 << 30
}

func TestFig3NonblockingBeatsBulkAtLowCores(t *testing.T) {
	jag := machine.JaguarPF()
	for _, cores := range []int{48, 192, 768, 1536} {
		b, _, _ := bestOverThreads(jag, core.BulkSync, cores)
		c, _, _ := bestOverThreads(jag, core.NonblockingOverlap, cores)
		if c <= b {
			t.Fatalf("cores=%d: nonblocking (%.1f) should slightly beat bulk (%.1f)", cores, c, b)
		}
		if c > b*1.10 {
			t.Fatalf("cores=%d: nonblocking wins by too much (%.1f vs %.1f) — paper says 'slightly'", cores, c, b)
		}
	}
}

func TestFig3BulkWinsAtScale(t *testing.T) {
	jag := machine.JaguarPF()
	for _, cores := range []int{6144, 12288} {
		b, _, _ := bestOverThreads(jag, core.BulkSync, cores)
		c, _, _ := bestOverThreads(jag, core.NonblockingOverlap, cores)
		if b <= c {
			t.Fatalf("cores=%d: bulk (%.1f) should beat nonblocking (%.1f) at scale", cores, b, c)
		}
	}
}

func TestFig4CrossoverLaterOnHopper(t *testing.T) {
	// "that limit is an order of magnitude higher on Hopper II"
	jagCounts := []int{192, 768, 1536, 3072, 6144, 12288}
	hopCounts := []int{384, 1536, 3072, 6144, 12288, 24576, 49152}
	jx := crossover(t, machine.JaguarPF(), jagCounts)
	hx := crossover(t, machine.HopperII(), hopCounts)
	if hx <= jx {
		t.Fatalf("Hopper crossover (%d) should be later than JaguarPF's (%d)", hx, jx)
	}
	if float64(hx) < 4*float64(jx) {
		t.Fatalf("Hopper crossover (%d) should be several times JaguarPF's (%d)", hx, jx)
	}
}

func TestThreadedOverlapConsistentlyLags(t *testing.T) {
	// "the implementation using an OpenMP thread for overlap consistently
	// lags in performance" — on both Crays, at every core count.
	cases := []struct {
		m      *machine.Machine
		counts []int
	}{
		{machine.JaguarPF(), []int{48, 192, 768, 1536, 3072, 6144, 12288}},
		{machine.HopperII(), []int{96, 384, 1536, 6144, 12288, 24576, 49152}},
	}
	for _, cse := range cases {
		for _, cores := range cse.counts {
			b, _, _ := bestOverThreads(cse.m, core.BulkSync, cores)
			d, _, _ := bestOverThreads(cse.m, core.ThreadedOverlap, cores)
			if d >= b {
				t.Fatalf("%s cores=%d: threaded overlap (%.1f) should lag bulk (%.1f)", cse.m.Name, cores, d, b)
			}
		}
	}
}

// --- Figure 5/6 shapes ------------------------------------------------------

func bestThreads(m *machine.Machine, cores int) int {
	bestT, bestGF := 0, 0.0
	for _, t := range m.ThreadChoices {
		if cores%t != 0 {
			continue
		}
		e, err := Evaluate(Config{M: m, Kind: core.BulkSync, Cores: cores, Threads: t})
		if err == nil && e.GF > bestGF {
			bestGF, bestT = e.GF, t
		}
	}
	return bestT
}

func TestFig5BestThreadsRisesWithCores(t *testing.T) {
	jag := machine.JaguarPF()
	low := bestThreads(jag, 48)
	high := bestThreads(jag, 12288)
	if low >= high {
		t.Fatalf("best threads at 48 cores (%d) should be below best at 12288 (%d)", low, high)
	}
	if low > 2 {
		t.Fatalf("small scale should favor few threads per task, got %d", low)
	}
	if high < 6 {
		t.Fatalf("large scale should favor many threads per task, got %d", high)
	}
}

func TestFig6TwentyFourThreadsNeverOptimal(t *testing.T) {
	// "Only 24 threads per task (on Hopper II) is never optimal."
	hop := machine.HopperII()
	for _, cores := range []int{24, 96, 384, 1536, 6144, 12288, 24576, 49152} {
		if bt := bestThreads(hop, cores); bt == 24 {
			t.Fatalf("cores=%d: 24 threads per task reported optimal", cores)
		}
	}
}

func TestBestThreadsVaries(t *testing.T) {
	// "different numbers of threads per task perform best at different
	// total core counts" — the sweep must not be constant.
	jag := machine.JaguarPF()
	seen := map[int]bool{}
	for _, cores := range []int{12, 48, 192, 768, 1536, 3072, 6144, 12288} {
		seen[bestThreads(jag, cores)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("best threads constant across core counts: %v", seen)
	}
}

// --- Figure 9/10 shapes -----------------------------------------------------

func TestFig10HybridOverlapDominates(t *testing.T) {
	yona := machine.Yona()
	for _, cores := range []int{12, 48, 96, 192} {
		i, _, _ := bestOverThreads(yona, core.HybridOverlap, cores)
		f, _, _ := bestOverThreads(yona, core.GPUBulkSync, cores)
		g, _, _ := bestOverThreads(yona, core.GPUStreams, cores)
		h, _, _ := bestOverThreads(yona, core.HybridBulkSync, cores)
		if !(i > h && h > g && g > f) {
			t.Fatalf("cores=%d: expected I > H > G > F, got I=%.0f H=%.0f G=%.0f F=%.0f",
				cores, i, h, g, f)
		}
		// "by a factor of two or more" over the non-hybrid GPU impls.
		if i < 2*f {
			t.Fatalf("cores=%d: hybrid overlap (%.0f) not 2x GPU bulk (%.0f)", cores, i, f)
		}
	}
}

func TestFig10YonaFourXOverCPU(t *testing.T) {
	// "the performance of the best CPU-GPU implementation is more than
	// four times the performance of the best CPU-only implementation."
	yona := machine.Yona()
	for _, cores := range []int{48, 96, 192} {
		i, _, _ := bestOverThreads(yona, core.HybridOverlap, cores)
		cpu := 0.0
		for _, k := range []core.Kind{core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap} {
			if v, _, _ := bestOverThreads(yona, k, cores); v > cpu {
				cpu = v
			}
		}
		if i < 4*cpu {
			t.Fatalf("cores=%d: CPU-GPU best %.0f < 4x CPU best %.0f", cores, i, cpu)
		}
	}
}

func TestFig9LensExceedsSumOfParts(t *testing.T) {
	// "the best CPU-GPU performance exceeds the sum of the best CPU-only
	// performance plus the best GPU-computation performance."
	lens := machine.Lens()
	for _, cores := range []int{64, 128, 256} {
		i, _, _ := bestOverThreads(lens, core.HybridOverlap, cores)
		cpu := 0.0
		for _, k := range []core.Kind{core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap} {
			if v, _, _ := bestOverThreads(lens, k, cores); v > cpu {
				cpu = v
			}
		}
		gpu := 0.0
		for _, k := range []core.Kind{core.GPUBulkSync, core.GPUStreams} {
			if v, _, _ := bestOverThreads(lens, k, cores); v > gpu {
				gpu = v
			}
		}
		if i <= cpu+gpu {
			t.Fatalf("cores=%d: hybrid %.0f should exceed cpu %.0f + gpu %.0f", cores, i, cpu, gpu)
		}
	}
}

// --- Figure 11/12 shapes ----------------------------------------------------

func TestFig12ThinBoxBestOnYona(t *testing.T) {
	// "The best box thickness is often just one" on Yona.
	yona := machine.Yona()
	for _, cores := range []int{12, 48, 192} {
		_, _, w := bestOverThreads(yona, core.HybridOverlap, cores)
		if w > 3 {
			t.Fatalf("cores=%d: best thickness %d, expected a thin veneer (<=3)", cores, w)
		}
	}
}

func TestFig11ThicknessShrinksWithScale(t *testing.T) {
	// "the best box width decreases with increasing core count" (Lens).
	lens := machine.Lens()
	_, _, wLow := bestOverThreads(lens, core.HybridOverlap, 32)
	_, _, wHigh := bestOverThreads(lens, core.HybridOverlap, 496)
	if wHigh > wLow {
		t.Fatalf("best thickness grew with cores: %d@32 -> %d@496", wLow, wHigh)
	}
}

func TestFewTasksPerNodeBestForHybrid(t *testing.T) {
	// "the best performance comes from few tasks per node, often just one
	// task."
	yona := machine.Yona()
	for _, cores := range []int{48, 192} {
		_, bt, _ := bestOverThreads(yona, core.HybridOverlap, cores)
		tasksPerNode := yona.Node.Cores() / bt
		if tasksPerNode > 2 {
			t.Fatalf("cores=%d: best config uses %d tasks per node", cores, tasksPerNode)
		}
	}
}

// --- general sanity ---------------------------------------------------------

func TestStrongScalingMonotone(t *testing.T) {
	// More cores must not reduce aggregate GF for the bulk implementation
	// over the plotted ranges.
	jag := machine.JaguarPF()
	prev := 0.0
	for _, cores := range []int{12, 48, 192, 768, 1536, 3072, 6144, 12288} {
		gf, _, _ := bestOverThreads(jag, core.BulkSync, cores)
		if gf < prev {
			t.Fatalf("bulk GF dropped from %.1f to %.1f at %d cores", prev, gf, cores)
		}
		prev = gf
	}
}

func TestParallelEfficiencyFalls(t *testing.T) {
	// Strong scaling: per-core efficiency at 12288 cores is below that at
	// 48 cores.
	jag := machine.JaguarPF()
	lo, _, _ := bestOverThreads(jag, core.BulkSync, 48)
	hi, _, _ := bestOverThreads(jag, core.BulkSync, 12288)
	if hi/12288 >= lo/48 {
		t.Fatal("no strong-scaling efficiency loss modelled")
	}
}

func TestGPUResidentMatchesKernelModel(t *testing.T) {
	// The perf model's GPU-resident estimate must agree with the gpusim
	// kernel model it is built on (plus launch overhead).
	yona := machine.Yona()
	e, err := Evaluate(Config{M: yona, Kind: core.GPUResident, BlockX: 32, BlockY: 8})
	if err != nil {
		t.Fatal(err)
	}
	if e.Breakdown["kernel"] <= 0 || e.Breakdown["kernel"] >= e.StepSec {
		t.Fatalf("breakdown inconsistent: %+v", e.Breakdown)
	}
}

func TestSmallerGridScalesDown(t *testing.T) {
	yona := machine.Yona()
	big, _ := Evaluate(Config{M: yona, Kind: core.GPUResident, N: grid.Uniform(420), BlockX: 32, BlockY: 8})
	small, _ := Evaluate(Config{M: yona, Kind: core.GPUResident, N: grid.Uniform(210), BlockX: 32, BlockY: 8})
	if small.StepSec >= big.StepSec {
		t.Fatal("smaller grid not faster")
	}
}

func TestMachineByName(t *testing.T) {
	for _, name := range []string{"JaguarPF", "Hopper II", "Lens", "Yona"} {
		m, err := machine.ByName(name)
		if err != nil || m.Name != name {
			t.Fatalf("ByName(%q): %v", name, err)
		}
	}
	if _, err := machine.ByName("Frontier"); err == nil {
		t.Fatal("unknown machine accepted")
	}
}

func TestTableIIStructure(t *testing.T) {
	// Table II structural facts.
	jag, hop, lens, yona := machine.JaguarPF(), machine.HopperII(), machine.Lens(), machine.Yona()
	checks := []struct {
		name string
		got  int
		want int
	}{
		{"JaguarPF nodes", jag.Nodes, 18688},
		{"JaguarPF cores/node", jag.Node.Cores(), 12},
		{"Hopper nodes", hop.Nodes, 6392},
		{"Hopper cores/node", hop.Node.Cores(), 24},
		{"Lens nodes", lens.Nodes, 31},
		{"Lens cores/node", lens.Node.Cores(), 16},
		{"Yona nodes", yona.Nodes, 16},
		{"Yona cores/node", yona.Node.Cores(), 12},
		{"Lens cores/GPU", lens.CoresPerGPU(), 16},
		{"Yona cores/GPU", yona.CoresPerGPU(), 12},
	}
	for _, c := range checks {
		if c.got != c.want {
			t.Fatalf("%s = %d, want %d", c.name, c.got, c.want)
		}
	}
	if jag.HasGPU() || hop.HasGPU() {
		t.Fatal("Crays must not have GPUs")
	}
	if !lens.HasGPU() || !yona.HasGPU() {
		t.Fatal("clusters must have GPUs")
	}
	if lens.GPU.Props.Name != "Tesla C1060" || yona.GPU.Props.Name != "Tesla C2050" {
		t.Fatal("wrong GPU models")
	}
}
