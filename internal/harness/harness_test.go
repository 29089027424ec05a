package harness

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	_ "repro/internal/impl"
	"repro/internal/machine"
	"repro/internal/stats"
)

func TestAllExperimentsRun(t *testing.T) {
	for _, e := range All() {
		var buf bytes.Buffer
		if err := e.Run(&buf); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if buf.Len() == 0 {
			t.Fatalf("%s: no output", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	for _, id := range []string{"table1", "fig3", "fig12", "sectionVE", "verify"} {
		e, err := ByID(id)
		if err != nil || e.ID != id {
			t.Fatalf("ByID(%s): %v", id, err)
		}
	}
	if _, err := ByID("fig99"); err == nil {
		t.Fatal("unknown ID accepted")
	}
}

func TestExperimentCoverage(t *testing.T) {
	// Every table and figure of the paper must have an experiment.
	want := []string{
		"table1", "table2",
		"fig2", "fig3", "fig4", "fig5", "fig6",
		"fig7", "fig8", "fig9", "fig10", "fig11", "fig12",
		"sectionVE", "verify",
		"ext-pcie", "ext-gpus", "ext-weak", "ext-wide", "convergence",
		"drift", "phases",
	}
	have := map[string]bool{}
	for _, e := range All() {
		have[e.ID] = true
	}
	for _, id := range want {
		if !have[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
	if len(have) != len(want) {
		t.Fatalf("experiment count %d, want %d", len(have), len(want))
	}
}

func TestCoreCounts(t *testing.T) {
	for _, m := range machine.All() {
		counts := CoreCounts(m)
		if len(counts) == 0 {
			t.Fatalf("%s: no core counts", m.Name)
		}
		prev := 0
		for _, c := range counts {
			if c <= prev {
				t.Fatalf("%s: counts not increasing: %v", m.Name, counts)
			}
			if c > m.Cores() {
				t.Fatalf("%s: count %d exceeds machine (%d cores)", m.Name, c, m.Cores())
			}
			prev = c
		}
	}
}

func TestBestPerImplSeries(t *testing.T) {
	s := BestPerImpl(machine.Yona(), ClusterKinds())
	if len(s) != len(ClusterKinds()) {
		t.Fatalf("%d series, want %d", len(s), len(ClusterKinds()))
	}
	for _, ser := range s {
		if len(ser.X) != len(CoreCounts(machine.Yona())) {
			t.Fatalf("%s: %d points, want %d", ser.Label, len(ser.X), len(CoreCounts(machine.Yona())))
		}
		for i := 1; i < len(ser.Y); i++ {
			if ser.Y[i] <= 0 {
				t.Fatalf("%s: non-positive GF", ser.Label)
			}
		}
	}
}

func TestThreadSweepSkipsIndivisible(t *testing.T) {
	for _, s := range ThreadSweep(machine.HopperII()) {
		for i, x := range s.X {
			_ = i
			if int(x)%threadsOf(s.Label) != 0 {
				t.Fatalf("series %q has indivisible core count %v", s.Label, x)
			}
		}
	}
}

func threadsOf(label string) int {
	n := 0
	for _, r := range label {
		if r < '0' || r > '9' {
			break
		}
		n = n*10 + int(r-'0')
	}
	if n == 0 {
		return 1
	}
	return n
}

func TestBlockSweepRespectsDeviceLimits(t *testing.T) {
	lens := machine.Lens().GPU.Props // max 512 threads/block
	for _, s := range BlockSweep(lens) {
		if strings.HasPrefix(s.Label, "x=32") {
			// (32+2)(y+2) <= 512 -> y <= 13
			for _, y := range s.X {
				if y > 13 {
					t.Fatalf("y=%v exceeds the C1060 limit for x=32", y)
				}
			}
		}
	}
}

func TestHybridCombosWinnersOnly(t *testing.T) {
	combos := HybridCombos(machine.Yona())
	if len(combos) == 0 {
		t.Fatal("no combos")
	}
	// Paper Fig 12: the winning combos on Yona use few tasks per node.
	for _, s := range combos {
		if !strings.Contains(s.Label, "threads") {
			t.Fatalf("bad label %q", s.Label)
		}
	}
}

func TestSectionVETable(t *testing.T) {
	tbl, err := SectionVE()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tbl.Rows))
	}
}

func TestVerifyTable(t *testing.T) {
	tbl, err := Verify(12, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != len(core.Kinds()) {
		t.Fatalf("%d rows, want %d", len(tbl.Rows), len(core.Kinds()))
	}
}

func TestTableIHas27Rows(t *testing.T) {
	tbl := TableI()
	if len(tbl.Rows) != 27 {
		t.Fatalf("%d rows, want 27", len(tbl.Rows))
	}
}

func TestTableIIHasFourMachines(t *testing.T) {
	tbl := TableII()
	if len(tbl.Rows) != 4 {
		t.Fatalf("%d rows, want 4", len(tbl.Rows))
	}
	var joined string
	for _, r := range tbl.Rows {
		joined += strings.Join(r, " ") + "\n"
	}
	for _, want := range []string{"JaguarPF", "Hopper II", "Lens", "Yona", "Tesla C1060", "Tesla C2050", "18688", "6392"} {
		if !strings.Contains(joined, want) {
			t.Fatalf("Table II missing %q", want)
		}
	}
}

func TestBestBlockMatchesPaper(t *testing.T) {
	if x, y := BestBlock(machine.Lens()); x != 32 || y != 11 {
		t.Fatalf("Lens block %dx%d, want 32x11", x, y)
	}
	if x, y := BestBlock(machine.Yona()); x != 32 || y != 8 {
		t.Fatalf("Yona block %dx%d, want 32x8", x, y)
	}
}

func TestExtPCIeShapes(t *testing.T) {
	series := ExtPCIe()
	var g, i *stats.Series
	for idx := range series {
		switch series[idx].Label {
		case "gpu-streams":
			g = &series[idx]
		case "hybrid-overlap":
			i = &series[idx]
		}
	}
	if g == nil || i == nil {
		t.Fatal("missing series")
	}
	// The stream implementation gains strongly from a faster link...
	if g.Y[len(g.Y)-1] < 1.8*g.Y[0] {
		t.Fatalf("streams should gain from faster PCIe: %v", g.Y)
	}
	// ...and the hybrid advantage collapses toward parity.
	first := i.Y[0] / g.Y[0]
	last := i.Y[len(i.Y)-1] / g.Y[len(g.Y)-1]
	if first < 2 {
		t.Fatalf("baseline hybrid advantage %.2f, want >= 2", first)
	}
	if last > 1.3 {
		t.Fatalf("hybrid advantage should shrink below 1.3x with fast links, got %.2f", last)
	}
}

func TestExtGPUsShapes(t *testing.T) {
	for _, s := range ExtGPUs() {
		if len(s.Y) < 2 {
			t.Fatalf("%s: too few points", s.Label)
		}
		if s.Y[1] <= s.Y[0] {
			t.Fatalf("%s: a second GPU per node should help (%v)", s.Label, s.Y)
		}
	}
}

func TestExtWeakEfficiencyFlat(t *testing.T) {
	for _, s := range ExtWeak() {
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		if last < 0.9*first {
			t.Fatalf("%s: weak-scaling efficiency fell from %.3g to %.3g", s.Label, first, last)
		}
	}
}

func TestWeakGrid(t *testing.T) {
	if WeakGrid(12) != 420 {
		t.Fatalf("WeakGrid(12) = %d, want 420", WeakGrid(12))
	}
	if WeakGrid(96) <= WeakGrid(12) {
		t.Fatal("weak grid must grow with cores")
	}
	if WeakGrid(96)%2 != 0 {
		t.Fatal("weak grid should be even")
	}
}

// TestDataAccessor pins the CSV rendering for every experiment: those
// declared with series — the extension experiments included — export them
// under a named x axis; the table-only ones refuse with the CLI's message.
func TestDataAccessor(t *testing.T) {
	series := map[string]bool{
		"fig3": true, "fig4": true, "fig5": true, "fig6": true, "fig7": true, "fig8": true,
		"fig9": true, "fig10": true, "fig11": true, "fig12": true,
		"ext-pcie": true, "ext-gpus": true, "ext-weak": true, "ext-wide": true,
	}
	for _, e := range All() {
		var buf bytes.Buffer
		err := e.CSV(&buf)
		if !series[e.ID] {
			if err == nil || !strings.Contains(err.Error(), e.ID+" has no series data (tables have none)") {
				t.Errorf("%s: table experiment exported CSV (err %v)", e.ID, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", e.ID, err)
			continue
		}
		lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
		xName, s := e.Series()
		if len(s) == 0 || xName == "" || !strings.HasPrefix(lines[0], xName+",") || len(lines) < 3 {
			t.Errorf("%s: CSV wrong:\n%s", e.ID, buf.String())
		}
	}
}

func TestExtWideHaloCrossover(t *testing.T) {
	series := ExtWideHalo()
	var bulk, w2 *stats.Series
	for i := range series {
		switch series[i].Label {
		case "bulk (W=1)":
			bulk = &series[i]
		case "wide halo W=2":
			w2 = &series[i]
		}
	}
	if bulk == nil || w2 == nil {
		t.Fatal("missing series")
	}
	find := func(s *stats.Series, x float64) float64 {
		for i := range s.X {
			if s.X[i] == x {
				return s.Y[i]
			}
		}
		t.Fatalf("%s missing x=%v", s.Label, x)
		return 0
	}
	// In the paper's plotted range, bulk wins.
	if find(w2, 1536) >= find(bulk, 1536) {
		t.Fatal("wide halo should lose at 1536 cores")
	}
	// At full-machine scale, wide halo wins clearly.
	if find(w2, 153408) < 1.1*find(bulk, 153408) {
		t.Fatalf("wide halo should win >=10%% at 153k cores: %v vs %v",
			find(w2, 153408), find(bulk, 153408))
	}
}

func TestConvergenceOrder(t *testing.T) {
	tbl, err := Convergence()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 3 {
		t.Fatalf("%d rows", len(tbl.Rows))
	}
	last := tbl.Rows[len(tbl.Rows)-1]
	order := last[len(last)-1]
	var p float64
	if _, err := fmt.Sscanf(order, "%f", &p); err != nil {
		t.Fatalf("bad order cell %q", order)
	}
	if p < 1.7 || p > 2.3 {
		t.Fatalf("observed order %v, want ~2", p)
	}
}
