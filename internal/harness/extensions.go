package harness

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/stats"
	"repro/internal/tune"
)

// PCIeSpeedups is the link-speed sweep of ext-pcie.
func PCIeSpeedups() []float64 { return []float64{1, 2, 4, 8} }

// fasterYona returns Yona with its CPU-GPU paths sped up by factor f:
// bandwidths multiplied, latencies divided.
func fasterYona(f float64) *machine.Machine {
	m := machine.Yona()
	// Copy the GPUPath so the shared template is not mutated.
	gp := *m.GPU
	gp.Link.GBs *= f
	gp.Link.LatencySec /= f
	gp.PageableGBs *= f
	gp.ShmMPIGBs *= f
	gp.PhaseSyncSec /= f
	m.GPU = &gp
	return m
}

// ExtPCIe returns, per speedup factor, the best single-node GF of the four
// GPU implementations.
func ExtPCIe() []stats.Series {
	kinds := []core.Kind{core.GPUBulkSync, core.GPUStreams, core.HybridBulkSync, core.HybridOverlap}
	var out []stats.Series
	for _, k := range kinds {
		s := stats.Series{Label: k.String()}
		for _, f := range PCIeSpeedups() {
			m := fasterYona(f)
			if r, err := tune.Exhaustive(m, k, 12, Space(m, k)); err == nil {
				s.Add(f, r.GF, "")
			}
		}
		out = append(out, s)
	}
	return out
}

// pcieRatios reads ext-pcie: how much of the hybrid advantage survives each
// speedup.
func pcieRatios(series []stats.Series) string {
	var g, i stats.Series
	for _, s := range series {
		switch s.Label {
		case core.GPUStreams.String():
			g = s
		case core.HybridOverlap.String():
			i = s
		}
	}
	var note strings.Builder
	for idx := range g.X {
		fmt.Fprintf(&note, "speedup %gx: hybrid-overlap / gpu-streams = %.2f\n",
			g.X[idx], i.Y[idx]/g.Y[idx])
	}
	note.WriteString("\nthe hybrid implementation's edge is a property of slow CPU-GPU paths;\n" +
		"faster interconnects (the NVLink future) shrink it, as §VI anticipates.\n")
	return note.String()
}

// GPUCounts is the GPUs-per-node sweep of ext-gpus.
func GPUCounts() []int { return []int{1, 2, 4} }

// ExtGPUs returns, per GPUs-per-node count, the best Yona-cluster GF of the
// GPU implementations at full machine scale.
func ExtGPUs() []stats.Series {
	kinds := []core.Kind{core.GPUStreams, core.HybridOverlap}
	var out []stats.Series
	for _, k := range kinds {
		s := stats.Series{Label: k.String()}
		for _, n := range GPUCounts() {
			m := machine.Yona()
			m.GPUsPerNode = n
			if r, err := tune.Exhaustive(m, k, 192, Space(m, k)); err == nil {
				s.Add(float64(n), r.GF, fmt.Sprintf("t=%d", r.Best.Threads))
			}
		}
		out = append(out, s)
	}
	return out
}

// WeakGrid returns the cube edge that keeps the per-core load of the
// paper's 420³/12-core baseline when running on the given cores.
func WeakGrid(cores int) int {
	base := 420.0 * math.Cbrt(float64(cores)/12.0)
	n := int(math.Round(base/2) * 2) // even, for tidy decompositions
	if n < 12 {
		n = 12
	}
	return n
}

// ExtWeak returns bulk and nonblocking efficiency series under weak
// scaling on Hopper II.
func ExtWeak() []stats.Series {
	hop := machine.HopperII()
	counts := []int{24, 192, 1536, 12288}
	kinds := []core.Kind{core.BulkSync, core.NonblockingOverlap}
	var out []stats.Series
	for _, k := range kinds {
		s := stats.Series{Label: k.String() + " GF/core"}
		space := tune.DefaultSpace(hop, k)
		for _, cores := range counts {
			n := WeakGrid(cores)
			space.N = grid.Uniform(n)
			if r, err := tune.Exhaustive(hop, k, cores, space); err == nil {
				s.Add(float64(cores), r.GF/float64(cores), fmt.Sprintf("n=%d", n))
			}
		}
		out = append(out, s)
	}
	return out
}

// WideHaloCores is the core-count sweep of ext-wide: the full Hopper II
// machine, beyond the paper's plotted range.
func WideHaloCores() []int { return []int{1536, 12288, 49152, 98304, 153408} }

// ExtWideHalo returns bulk vs wide-halo series on Hopper II (best over
// threads), widths 2 and 3.
func ExtWideHalo() []stats.Series {
	hop := machine.HopperII()
	configs := []struct {
		label string
		kind  core.Kind
		width int
	}{
		{"bulk (W=1)", core.BulkSync, 1},
		{"wide halo W=2", core.WideHaloExt, 2},
		{"wide halo W=3", core.WideHaloExt, 3},
	}
	var out []stats.Series
	for _, cfg := range configs {
		s := stats.Series{Label: cfg.label}
		space := tune.DefaultSpace(hop, cfg.kind)
		space.HaloWidth = cfg.width
		for _, cores := range WideHaloCores() {
			if r, err := tune.Exhaustive(hop, cfg.kind, cores, space); err == nil {
				s.Add(float64(cores), r.GF, fmt.Sprintf("t=%d", r.Best.Threads))
			}
		}
		out = append(out, s)
	}
	return out
}

// Convergence runs the resolution ladder validating the numerics behind
// the whole study (§II: the method is O(Δ²) for fixed simulated time).
func Convergence() (stats.Table, error) {
	t := stats.Table{Header: []string{"grid", "steps", "L2 error", "observed order"}}
	c := grid.Velocity{X: 0.8, Y: 0.4, Z: 0.2}
	prevL2 := 0.0
	prevN := 0
	for _, n := range []int{12, 24, 48} {
		p := core.Problem{
			N: grid.Uniform(n), C: c, Steps: n / 2,
			Wave: grid.Gaussian{
				Center: [3]float64{float64(n) / 2, float64(n) / 2, float64(n) / 2},
				Sigma:  float64(n) / 8,
			},
		}
		r, err := core.New(core.SingleTask)
		if err != nil {
			return t, err
		}
		res, err := r.Run(p, core.Options{Threads: 2, Verify: true})
		if err != nil {
			return t, err
		}
		order := ""
		if prevL2 > 0 {
			order = fmt.Sprintf("%.2f", math.Log(prevL2/res.Norms.L2)/math.Log(float64(n)/float64(prevN)))
		}
		t.AddRow(fmt.Sprintf("%d^3", n), fmt.Sprint(p.Steps),
			fmt.Sprintf("%.3e", res.Norms.L2), order)
		prevL2, prevN = res.Norms.L2, n
	}
	return t, nil
}

// HiddenFractions tabulates the model-side hidden-communication expectation
// per overlap kind and core count — the baseline the flight recorder's
// drift rule holds measured runs against.
func HiddenFractions() (stats.Table, error) {
	cores := []int{2, 12, 24, 96}
	t := stats.Table{Header: []string{"kind"}}
	for _, c := range cores {
		t.Header = append(t.Header, fmt.Sprintf("%d cores", c))
	}
	for _, k := range []core.Kind{core.NonblockingOverlap, core.ThreadedOverlap, core.GPUStreams, core.HybridOverlap} {
		row := []string{k.String()}
		for _, c := range cores {
			f, err := perf.ExpectedHiddenFraction(perf.Config{
				M: machine.Yona(), Kind: k, Cores: c, Threads: 1, N: grid.Uniform(48),
			})
			if err != nil {
				return t, fmt.Errorf("%v at %d cores: %w", k, c, err)
			}
			row = append(row, fmt.Sprintf("%.2f", f))
		}
		t.AddRow(row...)
	}
	return t, nil
}

// PhaseClocks lists every span phase with the clock its spans are timed on.
func PhaseClocks() stats.Table {
	t := stats.Table{Header: []string{"Phase", "Clock"}}
	for _, p := range obs.AllPhases() {
		t.AddRow(fmt.Sprintf("`%s`", p), fmt.Sprint(p.Base()))
	}
	return t
}
