package impl

import (
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

// hybridGeom is the geometry §IV-H and §IV-I share: CPU and GPU computation
// with the box decomposition of Fig. 1. Each task's domain is partitioned
// between CPU and GPU as a block in a box: the GPU computes the interior
// block (the devShell's domain), the CPU computes the enclosing shell whose
// wall thickness (Options.BoxThickness) balances the load.
type hybridGeom struct {
	*devShell
	walls      []grid.Subdomain    // the CPU shell, thickness T
	innerWalls [3][]grid.Subdomain // §IV-I: per dimension, the wall parts away from the MPI halos
}

func prepareHybrid(r *rank) {
	box := grid.BoxSplit{Local: r.sub.Size, T: r.o.BoxThickness}
	r.geom = &hybridGeom{devShell: newDevShell(r), walls: box.Walls()}
}

// copyBack commits a hybrid step on the CPU side: it copies the CPU-owned
// regions of the next state into the current state, threaded over their
// rows, under the copy span. The hybrid steps copy where the CPU steps swap:
// the CPU owns a few walls of its fields, the GPU block already flips, and
// the block's outer layer lands in them by copy.
func (r *rank) copyBack(regions ...[]grid.Subdomain) {
	sp := r.span(obs.PhaseCopy, "")
	for _, subs := range regions {
		for _, sub := range subs {
			if sub.Empty() {
				continue
			}
			nx := sub.Size.X
			r.team.ParallelFor(stencil.Rows(sub), par.Static, 0, func(lo, hi int) {
				for row := lo; row < hi; row++ {
					i := r.cur.Idx(sub.Lo.X, sub.Lo.Y+row%sub.Size.Y, sub.Lo.Z+row/sub.Size.Y)
					copy(r.cur.Data()[i:i+nx], r.nxt.Data()[i:i+nx])
				}
			})
		}
	}
	sp.End()
}
