package impl

import (
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
)

// stepSingle is the paper's baseline (§IV-A): one task, OpenMP threading.
// Each time step performs the paper's three algorithmic steps:
//
//  1. copy periodic boundaries (doubly nested loops, outer loop threaded),
//  2. compute the new state with Eq. 2 (triply nested loops, outermost two
//     collapsed and threaded), and
//  3. make the new state the current state (see commit).
func stepSingle(r *rank, _ int) {
	// The three dimension sweeps are each threaded over their outer loop;
	// keeping them serialized preserves the corner-propagation order.
	sp := r.span(obs.PhaseHaloUnpack, "periodic")
	copyPeriodicHalosParallel(r.team, r.cur)
	sp.End()
	r.compute(obs.PhaseInterior, "whole", r.whole)
	r.commit()
}

// copyPeriodicHalosParallel performs the single-task periodic boundary
// copy with each dimension sweep threaded over its outer loop, exactly the
// structure of §IV-A Step 1. Correctness requires the x sweep to finish
// before y and y before z, which the implicit barrier after each
// ParallelFor provides.
func copyPeriodicHalosParallel(team *par.Team, f *grid.Field) {
	n := f.N
	h := f.Halo
	d := f.Data()
	// x sweep over (k, j).
	team.ParallelFor(n.Z*n.Y, par.Static, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			k := r / n.Y
			j := r % n.Y
			for g := 1; g <= h; g++ {
				d[f.Idx(-g, j, k)] = d[f.Idx(n.X-g, j, k)]
				d[f.Idx(n.X-1+g, j, k)] = d[f.Idx(g-1, j, k)]
			}
		}
	})
	// y sweep over k, x range widened.
	team.ParallelFor(n.Z, par.Static, 0, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for g := 1; g <= h; g++ {
				w := n.X + 2*h
				src1 := f.Idx(-h, n.Y-g, k)
				dst1 := f.Idx(-h, -g, k)
				src2 := f.Idx(-h, g-1, k)
				dst2 := f.Idx(-h, n.Y-1+g, k)
				copy(d[dst1:dst1+w], d[src1:src1+w])
				copy(d[dst2:dst2+w], d[src2:src2+w])
			}
		}
	})
	// z sweep over j, x and y ranges widened.
	team.ParallelFor(n.Y+2*h, par.Static, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			j := r - h
			for g := 1; g <= h; g++ {
				w := n.X + 2*h
				src1 := f.Idx(-h, j, n.Z-g)
				dst1 := f.Idx(-h, j, -g)
				src2 := f.Idx(-h, j, g-1)
				dst2 := f.Idx(-h, j, n.Z-1+g)
				copy(d[dst1:dst1+w], d[src1:src1+w])
				copy(d[dst2:dst2+w], d[src2:src2+w])
			}
		}
	})
}
