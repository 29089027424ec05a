package impl

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
)

// TestExchangerEquivalentToPeriodicHalos is the direct property behind
// every MPI implementation's correctness: distributing a field among any
// number of tasks, running the three-phase exchange, and inspecting each
// rank's halo must give exactly the values a single periodic field holds
// in its halo at the same global positions — corners and edges included.
func TestExchangerEquivalentToPeriodicHalos(t *testing.T) {
	prop := func(seed uint32, nTasks uint8) bool {
		n := grid.Dims{X: int(seed%5) + 6, Y: int(seed/5%5) + 6, Z: int(seed/25%5) + 6}
		tasks := int(nTasks%6) + 1

		// Global reference with periodic halos.
		val := func(i, j, k int) float64 {
			return float64(i + 100*j + 10000*k)
		}
		ref := grid.NewField(n, 1)
		ref.Fill(val)
		ref.CopyPeriodicHalos()

		d := grid.NewDecomp(n, tasks)
		w := mpi.NewWorld(tasks)
		ok := true
		w.Run(func(c *mpi.Comm) {
			sub := d.Sub(c.Rank())
			local := grid.NewField(sub.Size, 1)
			local.Fill(func(i, j, k int) float64 {
				return val(sub.Lo.X+i, sub.Lo.Y+j, sub.Lo.Z+k)
			})
			ex := newExchanger(c, d, local)
			ex.exchange(0, 3)
			wrap := func(v, m int) int { return ((v % m) + m) % m }
			for k := -1; k <= sub.Size.Z; k++ {
				for j := -1; j <= sub.Size.Y; j++ {
					for i := -1; i <= sub.Size.X; i++ {
						gi := wrap(sub.Lo.X+i, n.X)
						gj := wrap(sub.Lo.Y+j, n.Y)
						gk := wrap(sub.Lo.Z+k, n.Z)
						if local.At(i, j, k) != val(gi, gj, gk) {
							ok = false
							return
						}
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestExchangerRepeatedSteps checks that tags and ordering stay consistent
// across many consecutive exchanges (no cross-step message confusion).
func TestExchangerRepeatedSteps(t *testing.T) {
	n := grid.Uniform(9)
	d := grid.NewDecomp(n, 3)
	w := mpi.NewWorld(3)
	w.Run(func(c *mpi.Comm) {
		sub := d.Sub(c.Rank())
		local := grid.NewField(sub.Size, 1)
		ex := newExchanger(c, d, local)
		for step := 0; step < 10; step++ {
			// Each step writes a step-dependent pattern, exchanges, and
			// checks the received halos carry this step's values.
			local.Fill(func(i, j, k int) float64 {
				return float64(step*1000000 + (sub.Lo.X + i) + 100*(sub.Lo.Y+j) + 10000*(sub.Lo.Z+k))
			})
			ex.exchange(0, 3)
			wrap := func(v, m int) int { return ((v % m) + m) % m }
			// Spot-check one halo plane.
			for j := 0; j < sub.Size.Y; j++ {
				gi := wrap(sub.Lo.X-1, n.X)
				gj := sub.Lo.Y + j
				gk := sub.Lo.Z
				want := float64(step*1000000 + gi + 100*gj + 10000*gk)
				if got := local.At(-1, j, 0); got != want {
					t.Errorf("step %d rank %d: halo = %v, want %v", step, c.Rank(), got, want)
					return
				}
			}
		}
	})
}

// oracleExchange is the four-copy exchange the exchanger replaced, kept
// as its oracle: per dimension, both faces packed into buffers, sent with a
// copy, received with a copy and unpacked — self-neighbors included. Its
// tags sit above the exchanger's so the two never match each other.
func oracleExchange(c *mpi.Comm, d grid.Decomp, f *grid.Field) {
	const tagBase = 8
	for dim := 0; dim < 3; dim++ {
		lo, hi := d.Neighbor(c.Rank(), dim, -1), d.Neighbor(c.Rank(), dim, +1)
		n := f.FaceCount(dim) * f.Halo
		send, recv := make([]float64, n), make([]float64, n)
		f.PackFace(dim, -1, f.Halo, send)
		c.Send(lo, tagBase+tagLow(dim), send)
		f.PackFace(dim, +1, f.Halo, send)
		c.Send(hi, tagBase+tagHigh(dim), send)
		c.Recv(lo, tagBase+tagHigh(dim), recv)
		f.UnpackFace(dim, -1, f.Halo, recv)
		c.Recv(hi, tagBase+tagLow(dim), recv)
		f.UnpackFace(dim, +1, f.Halo, recv)
	}
}

// TestExchangerMatchesFourCopyOracle: on uneven grids and every task count
// up to 12 that they admit, with halos one and two deep, the exchanger —
// periodic copies for self-neighbor dimensions, lent slots otherwise —
// leaves every halo point bitwise equal to the four-copy oracle's, over
// consecutive exchanges that reuse the same slots. The cases cover a task
// grid of extent 1, of extent 2 (both neighbors the same other rank) and
// of extent 3 or more.
func TestExchangerMatchesFourCopyOracle(t *testing.T) {
	extents := map[int]bool{}
	for _, n := range []grid.Dims{{X: 12, Y: 10, Z: 9}, {X: 7, Y: 7, Z: 6}} {
		for _, tasks := range []int{1, 2, 3, 4, 6, 8, 12} {
			for halo := 1; halo <= 2; halo++ {
				d := grid.NewDecomp(n, tasks)
				for dim := 0; dim < 3; dim++ {
					extents[min(d.P.Axis(dim), 3)] = true
				}
				t.Run(fmt.Sprintf("%v/P=%v/h=%d", n, d.P, halo), func(t *testing.T) {
					mpi.NewWorld(tasks).Run(func(c *mpi.Comm) {
						sub := d.Sub(c.Rank())
						got, want := grid.NewField(sub.Size, halo), grid.NewField(sub.Size, halo)
						ex := newExchanger(c, d, got)
						for step := 0; step < 3; step++ {
							got.Fill(func(i, j, k int) float64 {
								return float64(step) + float64(c.Rank())/16 + float64(i+13*j+169*k)/4096
							})
							copy(want.Data(), got.Data())
							ex.exchange(0, 3)
							oracleExchange(c, d, want)
							// A rank that stopped early would leave its peers
							// blocked in the next exchange: report, and go on.
							for i, v := range got.Data() {
								if math.Float64bits(v) != math.Float64bits(want.Data()[i]) {
									t.Errorf("rank %d step %d: storage index %d holds %v, the oracle %v",
										c.Rank(), step, i, v, want.Data()[i])
									break
								}
							}
						}
					})
				})
			}
		}
	}
	for _, p := range []int{1, 2, 3} {
		if !extents[p] {
			t.Errorf("no case has a task grid of extent %d in some dimension", p)
		}
	}
}

// BenchmarkExchange times one whole three-phase exchange (exchange(0, 3)) of
// every rank of a world: one task at 16³, whose phases are all periodic
// copies, and two ranks at 16³ and 128³ (task grid 1×1×2: two periodic
// copies and one exchange of messages).
func BenchmarkExchange(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     int
		tasks int
	}{
		{"tasks1/n16", 16, 1},
		{"tasks2/n16", 16, 2},
		{"tasks2/n128", 128, 2},
	} {
		b.Run(c.name, func(b *testing.B) {
			d := grid.NewDecomp(grid.Uniform(c.n), c.tasks)
			b.ReportAllocs()
			mpi.NewWorld(c.tasks).Run(func(cm *mpi.Comm) {
				f := grid.NewField(d.Sub(cm.Rank()).Size, 1)
				ex := newExchanger(cm, d, f)
				ex.exchange(0, 3) // the first exchange fills the mailboxes' slots
				cm.Barrier()
				if cm.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					ex.exchange(0, 3)
				}
				cm.Barrier()
				if cm.Rank() == 0 {
					b.StopTimer()
				}
			})
		})
	}
}

// TestRunDeterministic pins bitwise reproducibility: the same problem and
// configuration must give identical results run to run, for every
// implementation, despite the internal concurrency.
func TestRunDeterministic(t *testing.T) {
	p := core.DefaultProblem(14, 3)
	for _, k := range core.Kinds() {
		o := core.Options{Tasks: 3, Threads: 2, BlockX: 8, BlockY: 4}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		a := run(t, k, p, o)
		b := run(t, k, p, o)
		if nm := grid.DiffNorms(a.Final, b.Final); nm.LInf != 0 {
			t.Fatalf("%v: nondeterministic result (LInf %g)", k, nm.LInf)
		}
	}
}

// TestRankPanicReturnsError verifies the public API converts internal rank
// failures into errors rather than crashing the process.
func TestRankPanicReturnsError(t *testing.T) {
	// BoxThickness too large for one rank's subdomain passes the global
	// pre-check only if per-rank domains differ... force an error through
	// an invalid GPU block instead: block larger than the device limit is
	// caught pre-run, so use the world-level safeWorldRun directly.
	w := mpi.NewWorld(2)
	err := safeWorldRun(w, func(c *mpi.Comm) {
		if c.Rank() == 1 {
			panic("synthetic failure")
		}
		c.Barrier()
	})
	if err == nil {
		t.Fatal("rank panic not converted to error")
	}
}
