package advect

// One benchmark per table and figure of the paper (regenerating the data
// behind it and reporting the headline number as a custom metric), plus
// functional benchmarks of the kernels and implementations themselves.
//
// The figure benchmarks exercise the calibrated performance models, so
// their wall time is the cost of the model sweep; the headline GF metrics
// they report are the reproduced results. The functional benchmarks run
// real computation on real goroutines.

import (
	"io"
	"testing"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/loc"
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/stencil"
)

// --- Table I ---------------------------------------------------------------

func BenchmarkTableI(b *testing.B) {
	c := grid.Velocity{X: 1, Y: 0.5, Z: 0.25}
	nu := stencil.MaxStableNu(c)
	for i := 0; i < b.N; i++ {
		if stencil.TableI(c, nu).Sum() == 0 {
			b.Fatal("bad coefficients")
		}
	}
}

// --- Table II ---------------------------------------------------------------

func BenchmarkTableII(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(machine.All()) != 4 {
			b.Fatal("wrong machine count")
		}
	}
}

// --- Figure 2 ----------------------------------------------------------------

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := loc.Figure2()
		if err != nil || len(rows) != 9 {
			b.Fatalf("fig2: %v", err)
		}
	}
}

// --- Figures 3-6: CPU scaling -------------------------------------------------

func benchFigure(b *testing.B, run func() []series) {
	b.Helper()
	var last []series
	for i := 0; i < b.N; i++ {
		last = run()
	}
	peak := 0.0
	for _, s := range last {
		for _, y := range s.y() {
			if y > peak {
				peak = y
			}
		}
	}
	b.ReportMetric(peak, "peak-GF")
}

// series adapts stats.Series without importing it here.
type series interface{ y() []float64 }

type wrapped struct{ ys []float64 }

func (w wrapped) y() []float64 { return w.ys }

func wrapSeries(run func() [][]float64) func() []series {
	return func() []series {
		var out []series
		for _, ys := range run() {
			out = append(out, wrapped{ys})
		}
		return out
	}
}

func BenchmarkFig3(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.BestPerImpl(machine.JaguarPF(), harness.CPUKinds()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

func BenchmarkFig4(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.BestPerImpl(machine.HopperII(), harness.CPUKinds()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

func BenchmarkFig5(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.ThreadSweep(machine.JaguarPF()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

func BenchmarkFig6(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.ThreadSweep(machine.HopperII()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

// --- Figures 7-8: GPU block sizes ---------------------------------------------

func BenchmarkFig7(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.BlockSweep(gpusim.TeslaC1060()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

func BenchmarkFig8(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.BlockSweep(gpusim.TeslaC2050()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

// --- Figures 9-12: GPU clusters -------------------------------------------------

func BenchmarkFig9(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.BestPerImpl(machine.Lens(), harness.ClusterKinds()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

func BenchmarkFig10(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.BestPerImpl(machine.Yona(), harness.ClusterKinds()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

func BenchmarkFig11(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.HybridCombos(machine.Lens()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

func BenchmarkFig12(b *testing.B) {
	benchFigure(b, wrapSeries(func() [][]float64 {
		var out [][]float64
		for _, s := range harness.HybridCombos(machine.Yona()) {
			out = append(out, s.Y)
		}
		return out
	}))
}

// --- Section V-E ------------------------------------------------------------

func BenchmarkSectionVE(b *testing.B) {
	yona := machine.Yona()
	var i3 perf.Estimate
	for i := 0; i < b.N; i++ {
		var err error
		i3, err = perf.Evaluate(perf.Config{
			M: yona, Kind: core.HybridOverlap, Cores: 12, Threads: 12,
			BoxThickness: 1, BlockX: 32, BlockY: 8,
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(i3.GF, "hybrid-overlap-GF")
}

// --- functional benchmarks ---------------------------------------------------

func BenchmarkStencilApply(b *testing.B) {
	n := grid.Uniform(64)
	c := grid.Velocity{X: 1, Y: 0.5, Z: 0.25}
	src := grid.NewField(n, 1)
	grid.FillGaussian(src, grid.DefaultGaussian(n))
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := stencil.NewOp(stencil.TableI(c, stencil.MaxStableNu(c)), src)
	whole := stencil.Whole(n)
	b.SetBytes(int64(n.Volume()) * 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(src, dst, whole)
	}
	gf := float64(n.Volume()) * stencil.FlopsPerPoint * float64(b.N) / b.Elapsed().Seconds() / 1e9
	b.ReportMetric(gf, "GF")
}

func BenchmarkHaloExchangeSelf(b *testing.B) {
	n := grid.Uniform(64)
	f := grid.NewField(n, 1)
	grid.FillGaussian(f, grid.DefaultGaussian(n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CopyPeriodicHalos()
	}
}

func benchFunctional(b *testing.B, k core.Kind, o core.Options) {
	b.Helper()
	p := core.DefaultProblem(48, 1)
	r, err := core.New(k)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(p, o); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFunctionalSingle(b *testing.B) {
	benchFunctional(b, core.SingleTask, core.Options{Threads: 4})
}

func BenchmarkFunctionalBulk(b *testing.B) {
	benchFunctional(b, core.BulkSync, core.Options{Tasks: 8, Threads: 1})
}

func BenchmarkFunctionalNonblocking(b *testing.B) {
	benchFunctional(b, core.NonblockingOverlap, core.Options{Tasks: 8, Threads: 1})
}

func BenchmarkFunctionalThreaded(b *testing.B) {
	benchFunctional(b, core.ThreadedOverlap, core.Options{Tasks: 4, Threads: 2})
}

func BenchmarkFunctionalGPUResident(b *testing.B) {
	benchFunctional(b, core.GPUResident, core.Options{BlockX: 16, BlockY: 8})
}

func BenchmarkFunctionalGPUBulk(b *testing.B) {
	benchFunctional(b, core.GPUBulkSync, core.Options{Tasks: 2, BlockX: 16, BlockY: 8})
}

func BenchmarkFunctionalGPUStreams(b *testing.B) {
	benchFunctional(b, core.GPUStreams, core.Options{Tasks: 2, BlockX: 16, BlockY: 8})
}

func BenchmarkFunctionalHybridBulk(b *testing.B) {
	benchFunctional(b, core.HybridBulkSync, core.Options{Tasks: 2, Threads: 2, BlockX: 16, BlockY: 8})
}

func BenchmarkFunctionalHybridOverlap(b *testing.B) {
	benchFunctional(b, core.HybridOverlap, core.Options{Tasks: 2, Threads: 2, BlockX: 16, BlockY: 8})
}

// --- ablation benchmarks -------------------------------------------------------
// One bench per load-bearing design choice: each reports the
// with/without values of the mechanism as custom metrics.

func BenchmarkAblationCamping(b *testing.B) {
	var withX, withoutX int
	for i := 0; i < b.N; i++ {
		withX, withoutX, _ = perf.AblateCamping()
	}
	b.ReportMetric(float64(withX), "bestX-with")
	b.ReportMetric(float64(withoutX), "bestX-without")
}

func BenchmarkAblationOffload(b *testing.B) {
	var withR, withoutR float64
	for i := 0; i < b.N; i++ {
		withR, withoutR = perf.AblateOffload(1536)
	}
	b.ReportMetric(withR, "C/B-with")
	b.ReportMetric(withoutR, "C/B-without")
}

func BenchmarkAblationSlowPipe(b *testing.B) {
	var cal, ideal perf.AblationResult
	for i := 0; i < b.N; i++ {
		cal, ideal = perf.AblateSlowPipe()
	}
	b.ReportMetric(cal.Ablated/cal.Baseline, "I/G-calibrated")
	b.ReportMetric(ideal.Ablated/ideal.Baseline, "I/G-idealized")
}

func BenchmarkAblationThreadSlope(b *testing.B) {
	var withT, withoutT int
	for i := 0; i < b.N; i++ {
		withT, withoutT = perf.AblateThreadSlope(48)
	}
	b.ReportMetric(float64(withT), "bestT-with")
	b.ReportMetric(float64(withoutT), "bestT-without")
}

func BenchmarkAblationConcurrentKernels(b *testing.B) {
	var r perf.AblationResult
	for i := 0; i < b.N; i++ {
		r = perf.AblateConcurrentKernels()
	}
	b.ReportMetric(r.Baseline, "GF-concurrent")
	b.ReportMetric(r.Ablated, "GF-serialized")
}

// --- experiment rendering -----------------------------------------------------

func BenchmarkRenderAllExperiments(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range harness.All() {
			if e.ID == "verify" {
				continue // functional; benchmarked separately above
			}
			if err := e.Run(io.Discard); err != nil {
				b.Fatalf("%s: %v", e.ID, err)
			}
		}
	}
}

// --- extension experiments -------------------------------------------------

func BenchmarkExtPCIe(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		series := harness.ExtPCIe()
		var g, h float64
		for _, s := range series {
			switch s.Label {
			case "gpu-streams":
				g = s.Y[len(s.Y)-1]
			case "hybrid-overlap":
				h = s.Y[len(s.Y)-1]
			}
		}
		ratio = h / g
	}
	b.ReportMetric(ratio, "I/G-at-8x-link")
}

func BenchmarkExtGPUs(b *testing.B) {
	var peak float64
	for i := 0; i < b.N; i++ {
		for _, s := range harness.ExtGPUs() {
			if v, idx := s.Max(); idx >= 0 && v > peak {
				peak = v
			}
		}
	}
	b.ReportMetric(peak, "peak-GF")
}

func BenchmarkExtWeak(b *testing.B) {
	var eff float64
	for i := 0; i < b.N; i++ {
		s := harness.ExtWeak()[0]
		eff = s.Y[len(s.Y)-1] / s.Y[0]
	}
	b.ReportMetric(eff, "weak-efficiency")
}

func BenchmarkExtWideHalo(b *testing.B) {
	var gain float64
	for i := 0; i < b.N; i++ {
		series := harness.ExtWideHalo()
		var bulk, w2 float64
		for _, s := range series {
			switch s.Label {
			case "bulk (W=1)":
				bulk = s.Y[len(s.Y)-1]
			case "wide halo W=2":
				w2 = s.Y[len(s.Y)-1]
			}
		}
		gain = w2 / bulk
	}
	b.ReportMetric(gain, "W2/bulk-at-153k")
}

func BenchmarkFunctionalWideHalo(b *testing.B) {
	benchFunctional(b, core.WideHaloExt, core.Options{Tasks: 4, HaloWidth: 2})
}
