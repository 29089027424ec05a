package impl

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// TestSchedulesAgreeOnRandomConfigurations is the differential test of the
// runner layer: seeded random grids (non-cubic, odd and prime extents), task
// counts, thread counts, box thicknesses, halo depths, block sizes and step
// counts — short final wide-halo bursts and zero-step runs included — with
// every schedule held against single-task on each, to the bit: CPU ranks
// and emulated kernels alike run the one row kernel, whose value at a point
// depends only on the point's 27 inputs. Every run conserves mass. It prints
// the table it checked. The table ends with pinned cases, each on the task
// grid it names: two whose ranks are two points thick in x; one on 2×2×2
// with three threads, where threaded's master exchanges y and z while the
// workers read an x halo that came by message — under -race, the check
// that the two touch no common point; one on 2×1×1, where y and z are
// copies after an x message and land before any compute; one on 1×2×2,
// where the copy of x lands first and y and z bracket halves; and one on
// 1×2×1, where the copy of z follows the y message.
func TestSchedulesAgreeOnRandomConfigurations(t *testing.T) {
	const cases = 48
	extents := []int{5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 16, 17}
	blocks := [][2]int{{4, 4}, {8, 4}, {5, 3}, {16, 8}, {32, 8}}
	pinned := []struct {
		n                     grid.Dims
		tasks, threads, steps int // threads 0: drawn like the random cases'
		p                     grid.Dims
	}{
		{grid.Dims{X: 6, Y: 7, Z: 7}, 3, 0, 5, grid.Dims{X: 3, Y: 1, Z: 1}},  // 2×7×7 ranks
		{grid.Dims{X: 6, Y: 7, Z: 7}, 6, 0, 5, grid.Dims{X: 3, Y: 1, Z: 2}},  // 2×7×4 and 2×7×3 ranks
		{grid.Dims{X: 9, Y: 11, Z: 9}, 8, 3, 4, grid.Dims{X: 2, Y: 2, Z: 2}}, // 4…5 × 5…6 × 4…5 ranks
		{grid.Dims{X: 12, Y: 5, Z: 5}, 2, 0, 5, grid.Dims{X: 2, Y: 1, Z: 1}}, // 6×5×5 ranks
		{grid.Dims{X: 8, Y: 8, Z: 8}, 4, 0, 5, grid.Dims{X: 1, Y: 2, Z: 2}},  // 8×4×4 ranks
		{grid.Dims{X: 5, Y: 12, Z: 5}, 2, 0, 5, grid.Dims{X: 1, Y: 2, Z: 1}}, // 5×6×5 ranks
	}
	rng := rand.New(rand.NewSource(20110516))
	pick := func(n int) int { return 1 + rng.Intn(n) }

	var table strings.Builder
	fmt.Fprintf(&table, "%-10s %5s %7s %2s %2s %-5s %5s  %s\n",
		"grid", "tasks", "threads", "T", "W", "block", "steps", "max |u - single| per schedule (= is bitwise, - is no box fits)")
	for i := 0; i < cases+len(pinned); i++ {
		n := grid.Dims{X: extents[rng.Intn(len(extents))], Y: extents[rng.Intn(len(extents))], Z: extents[rng.Intn(len(extents))]}
		tasks := min(pick(8), n.X, n.Y, n.Z)
		if i >= cases {
			n, tasks = pinned[i-cases].n, pinned[i-cases].tasks
		}
		blk := blocks[rng.Intn(len(blocks))]
		p := core.Problem{
			N:     n,
			C:     grid.Velocity{X: 1 - 2*rng.Float64(), Y: 1 - 2*rng.Float64(), Z: 1 - 2*rng.Float64()},
			Steps: rng.Intn(8),
			Wave:  grid.Gaussian{Center: [3]float64{rng.Float64() * float64(n.X), rng.Float64() * float64(n.Y), rng.Float64() * float64(n.Z)}, Sigma: 1.5 + rng.Float64()},
		}
		if i >= cases {
			p.Steps = pinned[i-cases].steps
		}
		// The thinnest subdomain bounds the box thickness (2T < extent)
		// and the halo depth (W <= extent).
		thin := min(n.X, n.Y, n.Z)
		d := grid.NewDecomp(n, tasks)
		for r := 0; r < tasks; r++ {
			s := d.Sub(r).Size
			thin = min(thin, s.X, s.Y, s.Z)
		}
		o := core.Options{
			Tasks: tasks, Threads: pick(3), BlockX: blk[0], BlockY: blk[1],
			BoxThickness: min(pick(3), (thin-1)/2), HaloWidth: min(pick(4), thin), Verify: true,
		}
		if i >= cases {
			pc := pinned[i-cases]
			if d.P != pc.p {
				t.Fatalf("case %d: %v in %d tasks is a %v task grid, want %v", i, n, tasks, d.P, pc.p)
			}
			if pc.threads > 0 {
				o.Threads = pc.threads
			}
		}
		want := run(t, core.SingleTask, p, core.Options{Threads: o.Threads, Verify: true})
		mass := want.Final.InteriorSum()

		row := fmt.Sprintf("%-10v %5d %7d %2d %2d %-5s %5d ", n, o.Tasks, o.Threads, o.BoxThickness, o.HaloWidth,
			fmt.Sprintf("%dx%d", o.BlockX, o.BlockY), p.Steps)
		table.WriteString(row)
		for _, k := range allKinds[1:] {
			if o.BoxThickness == 0 && (k == core.HybridBulkSync || k == core.HybridOverlap) {
				fmt.Fprintf(&table, " %s:-", k) // a subdomain too thin for a box
				continue
			}
			ko := o
			if !k.UsesMPI() {
				ko.Tasks = 1
			}
			res := run(t, k, p, ko)
			linf := grid.DiffNorms(res.Final, want.Final).LInf
			if linf == 0 {
				fmt.Fprintf(&table, " %s:=", k)
			} else {
				fmt.Fprintf(&table, " %s:%.0e", k, linf)
			}
			if linf != 0 {
				t.Errorf("case %d (%s): %v differs from single-task by %g", i, strings.Join(strings.Fields(row), " "), k, linf)
			}
			if res.MassDrift > 1e-11*(1+math.Abs(mass)) {
				t.Errorf("case %d (%s): %v drifts in mass by %g of %g", i, strings.Join(strings.Fields(row), " "), k, res.MassDrift, mass)
			}
		}
		table.WriteByte('\n')
	}
	t.Log("\n" + table.String())
}
