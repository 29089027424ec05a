package impl

import (
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
	// Each dimension sweep is threaded over its rows; the barrier ending
	// each ParallelFor keeps them in x, y, z order, which is what carries
	// the corners.
	sp := r.span(obs.PhaseHaloUnpack, "periodic")
	for dim := 0; dim < 3; dim++ {
		r.team.ParallelFor(r.cur.PeriodicRows(dim), par.Static, 0, func(lo, hi int) {
			r.cur.PeriodicSweep(dim, lo, hi)
		})
	}
	sp.End()
	r.compute(obs.PhaseInterior, "whole", r.whole)
	r.commit()
}
