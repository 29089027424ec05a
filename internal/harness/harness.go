// Package harness declares one reproducible experiment per table and figure
// of the paper's evaluation, built on the perf models (for machine-scale
// results), the gpusim device model (for the block-size sweeps), the
// functional implementations (for verification), and the loc counter
// (Figure 2). An experiment is declared once, in All; terminal text with an
// ASCII chart, Markdown and CSV are three renderings of that declaration.
package harness

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/gpusim"
	_ "repro/internal/impl" // register the implementations Verify runs
	"repro/internal/machine"
	"repro/internal/perf"
	"repro/internal/stats"
	"repro/internal/stencil"
	"repro/internal/tune"
)

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID       string // e.g. "fig3"
	Title    string
	PaperRef string // the paper element reproduced
	Expect   string // the shape the paper reports

	// Exactly one of Series and Table computes the data.
	Series func() (xName string, s []stats.Series)
	Table  func() (stats.Table, error)
	// Chart titles the ASCII chart Run draws under a Series table; empty
	// draws none.
	Chart string
	// Note, if set, returns the lines that follow the data (s is nil for a
	// Table experiment).
	Note func(s []stats.Series) string
}

func (e Experiment) data() (stats.Table, []stats.Series, error) {
	if e.Series != nil {
		xName, s := e.Series()
		return stats.SeriesTable(xName, s), s, nil
	}
	t, err := e.Table()
	return t, nil, err
}

// Run writes the experiment as terminal text: the aligned table, the chart
// if it has one, the note if it has one.
func (e Experiment) Run(w io.Writer) error {
	t, s, err := e.data()
	if err != nil {
		return err
	}
	t.Render(w)
	if e.Chart != "" {
		fmt.Fprintln(w)
		stats.Chart(w, e.Chart, s, 72, 18)
	}
	if e.Note != nil {
		fmt.Fprintf(w, "\n%s", e.Note(s))
	}
	return nil
}

// Markdown writes the experiment as the body of a document section: a
// Markdown table, or, where a note reads against the table, the two
// together as Run prints them, fenced. A charted figure stays a table; its
// chart and the note that marks the chart's peak are terminal renderings.
func (e Experiment) Markdown(w io.Writer) error {
	if e.Note != nil && e.Chart == "" {
		fmt.Fprintln(w, "```")
		err := e.Run(w)
		fmt.Fprintln(w, "```")
		return err
	}
	t, _, err := e.data()
	if err != nil {
		return err
	}
	t.WriteMarkdown(w)
	return nil
}

// CSV writes the series behind the experiment, for plotting with external
// tools; a Table experiment has none.
func (e Experiment) CSV(w io.Writer) error {
	if e.Series == nil {
		return fmt.Errorf("%s has no series data (tables have none)", e.ID)
	}
	xName, s := e.Series()
	return stats.WriteCSV(w, xName, s)
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("harness: unknown experiment %q", id)
}

// CoreCounts returns the core counts swept for a machine's figures.
func CoreCounts(m *machine.Machine) []int {
	switch m.Name {
	case "JaguarPF":
		return []int{12, 48, 192, 768, 1536, 3072, 6144, 12288}
	case "Hopper II":
		return []int{24, 96, 384, 1536, 6144, 12288, 24576, 49152}
	case "Lens":
		return []int{16, 32, 64, 128, 256, 496}
	case "Yona":
		return []int{12, 24, 48, 96, 192}
	}
	return nil
}

// Space is the tuning space behind every "best over the tuning parameters"
// point (§V): the paper's thread and box-thickness choices, with the GPU
// block pinned to the machine's best.
func Space(m *machine.Machine, k core.Kind) tune.Space {
	s := tune.DefaultSpace(m, k)
	bx, by := BestBlock(m)
	s.BlockX, s.BlockY = []int{bx}, []int{by}
	return s
}

// BestBlock returns the GPU block used for a machine's parallel GPU
// experiments: the paper's 32×11 on Lens and 32×8 on Yona.
func BestBlock(m *machine.Machine) (int, int) {
	if m.Name == "Lens" {
		return 32, 11
	}
	return 32, 8
}

// BestPerImpl builds one series per implementation: best GF over tuning
// parameters at each core count (the construction of Figures 3, 4, 9, 10).
func BestPerImpl(m *machine.Machine, kinds []core.Kind) []stats.Series {
	var out []stats.Series
	for _, k := range kinds {
		s := stats.Series{Label: k.String()}
		space := Space(m, k)
		for _, cores := range CoreCounts(m) {
			r, err := tune.Exhaustive(m, k, cores, space)
			if err != nil {
				continue
			}
			note := fmt.Sprintf("t=%d", r.Best.Threads)
			if k == core.HybridBulkSync || k == core.HybridOverlap {
				note += fmt.Sprintf(",w=%d", r.Best.Thickness)
			}
			s.Add(float64(cores), r.GF, note)
		}
		out = append(out, s)
	}
	return out
}

// ThreadSweep builds one series per threads-per-task choice for the
// bulk-synchronous implementation (Figures 5 and 6).
func ThreadSweep(m *machine.Machine) []stats.Series {
	var out []stats.Series
	for _, t := range m.ThreadChoices {
		s := stats.Series{Label: fmt.Sprintf("%d threads/task", t)}
		for _, cores := range CoreCounts(m) {
			if cores%t != 0 {
				continue
			}
			e, err := perf.Evaluate(perf.Config{M: m, Kind: core.BulkSync, Cores: cores, Threads: t})
			if err != nil {
				continue
			}
			s.Add(float64(cores), e.GF, "")
		}
		out = append(out, s)
	}
	return out
}

// BlockSweep builds one series per block x dimension of the GPU-resident
// kernel model (Figures 7 and 8).
func BlockSweep(p gpusim.Props) []stats.Series {
	var out []stats.Series
	for _, bx := range []int{16, 32, 64, 128} {
		s := stats.Series{Label: fmt.Sprintf("x=%d", bx)}
		for by := 1; by <= 64; by++ {
			l := gpusim.StencilLaunch(420, 420, 420, bx, by)
			if l.Validate(p) != nil {
				continue
			}
			gf, err := gpusim.KernelGF(p, l)
			if err != nil {
				continue
			}
			s.Add(float64(by), gf, "")
		}
		if len(s.X) > 0 {
			out = append(out, s)
		}
	}
	return out
}

// HybridCombos builds the Figure 11/12 series: for each (threads, box
// thickness) combination that is the best at one or more core counts, the
// full curve of the hybrid-overlap implementation.
func HybridCombos(m *machine.Machine) []stats.Series {
	var searches []tune.Result // one per core count, nil Feasible where none is
	wins := map[tune.Point]bool{}
	space := Space(m, core.HybridOverlap)
	for _, cores := range CoreCounts(m) {
		r, err := tune.Exhaustive(m, core.HybridOverlap, cores, space)
		if err == nil {
			wins[r.Best] = true
		}
		searches = append(searches, r)
	}
	var combos []tune.Point
	for c := range wins {
		combos = append(combos, c)
	}
	sort.Slice(combos, func(i, j int) bool {
		if combos[i].Threads != combos[j].Threads {
			return combos[i].Threads < combos[j].Threads
		}
		return combos[i].Thickness < combos[j].Thickness
	})
	var out []stats.Series
	for _, c := range combos {
		s := stats.Series{Label: fmt.Sprintf("%d threads, width %d", c.Threads, c.Thickness)}
		for i, cores := range CoreCounts(m) {
			for _, e := range searches[i].Feasible {
				if e.Point == c {
					s.Add(float64(cores), e.GF, "")
				}
			}
		}
		out = append(out, s)
	}
	return out
}

// CPUKinds are the implementations of Figures 3 and 4.
func CPUKinds() []core.Kind {
	return []core.Kind{core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap}
}

// ClusterKinds are the implementations of Figures 9 and 10.
func ClusterKinds() []core.Kind {
	return []core.Kind{
		core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap,
		core.GPUBulkSync, core.GPUStreams, core.HybridBulkSync, core.HybridOverlap,
	}
}

// SectionVE returns the paper-vs-model table for the §V-E single-node
// anchors on Yona.
func SectionVE() (stats.Table, error) {
	yona := machine.Yona()
	t := stats.Table{Header: []string{"quantity", "paper (GF)", "model (GF)"}}

	blocks := tune.Space{Threads: []int{1}, Thickness: []int{1}, BlockX: []int{16, 32, 64, 128}}
	for by := 1; by <= 32; by++ {
		blocks.BlockY = append(blocks.BlockY, by)
	}
	rows := []struct {
		name  string
		kind  core.Kind
		space tune.Space
		paper string
	}{
		{"GPU-resident best (Fig 8)", core.GPUResident, blocks, "86"},
		{"GPU bulk-sync MPI, 1 node (IV-F)", core.GPUBulkSync, Space(yona, core.GPUBulkSync), "24"},
		{"GPU streams overlap, 1 node (IV-G)", core.GPUStreams, Space(yona, core.GPUStreams), "35"},
		{"CPU-GPU full overlap, 1 node (IV-I)", core.HybridOverlap, Space(yona, core.HybridOverlap), "82"},
	}
	for _, r := range rows {
		best, err := tune.Exhaustive(yona, r.kind, yona.Node.Cores(), r.space)
		if err != nil {
			return t, err
		}
		t.AddRow(r.name, r.paper, stats.FormatNum(best.GF))
	}
	return t, nil
}

// Verify runs every functional implementation on a small problem and
// reports agreement with the single-task reference and the analytic
// solution — the reproduction's analog of the paper's norm recording.
func Verify(n, steps, tasks int) (stats.Table, error) {
	p := core.DefaultProblem(n, steps)
	t := stats.Table{Header: []string{"implementation", "section", "L2 vs analytic", "LInf vs analytic", "mass drift", "sim GF"}}
	for _, k := range core.Kinds() {
		r, err := core.New(k)
		if err != nil {
			return t, err
		}
		o := core.Options{Tasks: tasks, Threads: 2, BlockX: 16, BlockY: 8, Verify: true}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		res, err := r.Run(p, o)
		if err != nil {
			return t, fmt.Errorf("%v: %w", k, err)
		}
		sim := ""
		if v, ok := res.Stats["sim.gf"]; ok {
			sim = stats.FormatNum(v)
		}
		t.AddRow(k.String(), k.Section(),
			fmt.Sprintf("%.3e", res.Norms.L2),
			fmt.Sprintf("%.3e", res.Norms.LInf),
			fmt.Sprintf("%.3e", res.MassDrift),
			sim)
	}
	return t, nil
}

// TableI renders the stencil coefficients for the default velocity at the
// maximum stable ν.
func TableI() stats.Table {
	p := core.DefaultProblem(420, 1)
	nu := stencil.MaxStableNu(p.C)
	c := stencil.TableI(p.C, nu)
	t := stats.Table{Header: []string{"i", "j", "k", "a_ijk"}}
	for k := -1; k <= 1; k++ {
		for j := -1; j <= 1; j++ {
			for i := -1; i <= 1; i++ {
				t.AddRow(fmt.Sprint(i), fmt.Sprint(j), fmt.Sprint(k),
					fmt.Sprintf("%+.6f", c.At(i, j, k)))
			}
		}
	}
	return t
}

// TableII renders the machine table.
func TableII() stats.Table {
	t := stats.Table{Header: []string{
		"system", "nodes", "mem/node GB", "sockets", "cores/socket",
		"clock GHz", "interconnect", "MPI", "GPU", "GPU mem GB",
	}}
	for _, m := range machine.All() {
		gpu, gmem := "-", "-"
		if m.HasGPU() {
			gpu = m.GPU.Props.Name
			gmem = fmt.Sprint(m.GPU.Props.GlobalMemBytes >> 30)
		}
		t.AddRow(m.Name, fmt.Sprint(m.Nodes), fmt.Sprint(m.Node.MemoryGB),
			fmt.Sprint(m.Node.Sockets), fmt.Sprint(m.Node.CoresPerSocket),
			fmt.Sprintf("%.1f", m.Node.ClockGHz), m.Net.Name, m.MPIName, gpu, gmem)
	}
	return t
}
