package impl

import (
	"repro/internal/obs"
	"repro/internal/par"
)

// periodic is §IV-A's periodic copy as the team runs it: sweep copies rows
// of dimension dim's sweep, bound once so that a step allocates nothing.
type periodic struct {
	dim   int
	sweep func(lo, hi int)
}

func prepareSingle(r *rank) {
	g := &periodic{}
	g.sweep = func(lo, hi int) { r.cur.PeriodicSweep(g.dim, lo, hi) }
	r.geom = g
}

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
	g := r.geom.(*periodic)
	sp := r.span(obs.PhaseHaloUnpack, "periodic")
	for g.dim = 0; g.dim < 3; g.dim++ {
		r.team.ParallelFor(r.cur.PeriodicRows(g.dim), par.Static, 0, g.sweep)
	}
	sp.End()
	r.compute(obs.PhaseInterior, "whole", r.whole)
	r.commit()
}
