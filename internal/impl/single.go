package impl

import "repro/internal/obs"

// stepSingle is the paper's baseline (§IV-A): one task, OpenMP threading.
// Each time step performs the paper's three algorithmic steps:
//
//  1. copy periodic boundaries,
//  2. compute the new state with Eq. 2 (triply nested loops, outermost two
//     collapsed and threaded), and
//  3. make the new state the current state (see commit).
//
// The periodic copy is the second departure from the paper's codes (commit
// is the first, regionTeam the third), which thread the copy's outer loop:
// it runs the three whole-dimension sweeps of the exchanger's self-neighbour
// phases on the task's own goroutine, so a step opens one parallel region,
// the compute, instead of four. A sweep moves only the halo shell, and on a small grid a
// region's fork and join cost as much as the sweep they would split.
// internal/perf still charges the threaded copy: it models the paper's
// codes.
func stepSingle(r *rank, _ int) {
	sp := r.span(obs.PhaseHaloUnpack, "periodic")
	r.cur.CopyPeriodicHalos()
	sp.End()
	r.compute(obs.PhaseInterior, "whole", r.whole)
	r.commit()
}
