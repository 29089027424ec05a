package impl

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"

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

// agreeWithOneThread runs each of kinds on p with o (one task for §IV-A and
// §IV-E; the hybrids only where a box fits, T > 0) and requires its field to
// be single-task's at one thread to the bit and its mass to be conserved.
func agreeWithOneThread(t *testing.T, name string, p core.Problem, o core.Options, kinds []core.Kind) {
	t.Helper()
	want := run(t, core.SingleTask, p, core.Options{Threads: 1, Verify: true, Ctx: o.Ctx})
	mass := want.Final.InteriorSum()
	for _, k := range kinds {
		if o.BoxThickness == 0 && (k == core.HybridBulkSync || k == core.HybridOverlap) {
			continue
		}
		ko := o
		if !k.UsesMPI() {
			ko.Tasks = 1
		}
		res := run(t, k, p, ko)
		if linf := grid.DiffNorms(res.Final, want.Final).LInf; linf != 0 {
			t.Errorf("%s: %v at %d tasks × %d threads differs from single-task at one thread by %g", name, k, ko.Tasks, ko.Threads, linf)
		}
		if res.MassDrift > 1e-11*(1+math.Abs(mass)) {
			t.Errorf("%s: %v drifts in mass by %g of %g", name, k, res.MassDrift, mass)
		}
	}
}

// TestSchedulesAgreeAboveTheThreshold holds the CPU schedules against
// single-task at one thread where their regions are big enough for a team
// of more than one (minParallelPoints): TestSchedulesAgreeOnRandomConfigurations
// draws grids whose every region runs on a team of one. Every rank's local
// domain here is above the threshold; on the 1×2×1 task grid threaded's
// interior part (32×22×28) is too, so its master exchanges y while a worker
// computes, and nonblocking's halves fall below it.
func TestSchedulesAgreeAboveTheThreshold(t *testing.T) {
	cpu := []core.Kind{core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap, core.WideHaloExt}
	for _, c := range []struct {
		n              grid.Dims
		tasks, threads int
		p              grid.Dims
		kinds          []core.Kind
	}{
		{grid.Dims{X: 30, Y: 28, Z: 26}, 1, 2, grid.Dims{X: 1, Y: 1, Z: 1}, []core.Kind{core.SingleTask, core.ThreadedOverlap}},
		{grid.Dims{X: 30, Y: 28, Z: 26}, 1, 3, grid.Dims{X: 1, Y: 1, Z: 1}, []core.Kind{core.SingleTask, core.ThreadedOverlap}},
		{grid.Dims{X: 48, Y: 28, Z: 26}, 2, 2, grid.Dims{X: 2, Y: 1, Z: 1}, cpu},
		{grid.Dims{X: 32, Y: 48, Z: 30}, 2, 2, grid.Dims{X: 1, Y: 2, Z: 1}, cpu},
	} {
		d := grid.NewDecomp(c.n, c.tasks)
		if d.P != c.p {
			t.Fatalf("%v in %d tasks is a %v task grid, want %v", c.n, c.tasks, d.P, c.p)
		}
		for r := 0; r < c.tasks; r++ {
			if v := d.Sub(r).Size.Volume(); v < minParallelPoints {
				t.Fatalf("%v in %d tasks: rank %d has %d points, under the %d of a threaded region", c.n, c.tasks, r, v, minParallelPoints)
			}
		}
		p := core.Problem{
			N: c.n, C: grid.Velocity{X: 0.9, Y: -0.6, Z: 0.35}, Steps: 5,
			Wave: grid.Gaussian{Center: [3]float64{0.3 * float64(c.n.X), 0.6 * float64(c.n.Y), 0.45 * float64(c.n.Z)}, Sigma: 2.5},
		}
		o := core.Options{Tasks: c.tasks, Threads: c.threads, HaloWidth: 3, Verify: true}
		agreeWithOneThread(t, fmt.Sprintf("%v %d×%d", c.n, c.tasks, c.threads), p, o, c.kinds)
	}
}

// FuzzSchedulesAgree is the differential test over inputs the fuzzer
// chooses: extents of 5 to 36, so that some regions cross minParallelPoints,
// task counts up to 8, 1 to 3 threads, halo depth, box thickness, block and
// step count, clamped as TestSchedulesAgreeOnRandomConfigurations clamps its
// draws. Every kind must reproduce single-task at one thread to the bit
// within a deadline. The seeds are that test's six pinned configurations and
// one whose ranks' regions run on a team of two.
func FuzzSchedulesAgree(f *testing.F) {
	f.Add(uint8(6), uint8(7), uint8(7), uint8(3), uint8(2), uint8(2), uint8(1), uint8(0), uint8(5), int64(1))
	f.Add(uint8(6), uint8(7), uint8(7), uint8(6), uint8(2), uint8(3), uint8(1), uint8(1), uint8(5), int64(2))
	f.Add(uint8(9), uint8(11), uint8(9), uint8(8), uint8(3), uint8(2), uint8(2), uint8(2), uint8(4), int64(3))
	f.Add(uint8(12), uint8(5), uint8(5), uint8(2), uint8(2), uint8(4), uint8(2), uint8(3), uint8(5), int64(4))
	f.Add(uint8(8), uint8(8), uint8(8), uint8(4), uint8(2), uint8(2), uint8(1), uint8(4), uint8(5), int64(5))
	f.Add(uint8(5), uint8(12), uint8(5), uint8(2), uint8(2), uint8(3), uint8(1), uint8(0), uint8(5), int64(6))
	f.Add(uint8(32), uint8(36), uint8(30), uint8(2), uint8(2), uint8(3), uint8(2), uint8(1), uint8(3), int64(7))
	blocks := [][2]int{{4, 4}, {8, 4}, {5, 3}, {16, 8}, {32, 8}}
	f.Fuzz(func(t *testing.T, nx, ny, nz, tasks, threads, w, box, block, steps uint8, seed int64) {
		extent := func(v uint8) int { return 5 + int(v-5)%32 }
		n := grid.Dims{X: extent(nx), Y: extent(ny), Z: extent(nz)}
		o := core.Options{Tasks: min(1+int(tasks-1)%8, n.X, n.Y, n.Z), Threads: 1 + int(threads-1)%3, Verify: true}
		d, err := grid.Decompose(n, o.Tasks)
		if err != nil {
			t.Skip(err) // no factorisation fits the grid
		}
		thin := min(n.X, n.Y, n.Z)
		for r := 0; r < o.Tasks; r++ {
			s := d.Sub(r).Size
			thin = min(thin, s.X, s.Y, s.Z)
		}
		blk := blocks[int(block)%len(blocks)]
		o.BlockX, o.BlockY = blk[0], blk[1]
		o.BoxThickness = min(1+int(box-1)%3, (thin-1)/2)
		o.HaloWidth = min(1+int(w-1)%4, thin)
		rng := rand.New(rand.NewSource(seed))
		p := core.Problem{
			N:     n,
			C:     grid.Velocity{X: 1 - 2*rng.Float64(), Y: 1 - 2*rng.Float64(), Z: 1 - 2*rng.Float64()},
			Steps: int(steps) % 8,
			Wave:  grid.Gaussian{Center: [3]float64{rng.Float64() * float64(n.X), rng.Float64() * float64(n.Y), rng.Float64() * float64(n.Z)}, Sigma: 1.5 + rng.Float64()},
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		o.Ctx = ctx
		agreeWithOneThread(t, fmt.Sprintf("%v %d×%d T=%d W=%d block %v steps %d", n, o.Tasks, o.Threads, o.BoxThickness, o.HaloWidth, blk, p.Steps), p, o, allKinds[1:])
	})
}
