package impl

import (
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// threadedCut is the local domain as stepThreaded computes it, each point
// once: rows while the master exchanges y and z, slabs after the region.
// master is that share, bound once so that a step allocates nothing.
type threadedCut struct {
	rows   grid.Subdomain
	slabs  []grid.Subdomain
	master func()
}

// prepareThreaded cuts the local domain for §IV-D: the interior's y–z range
// as whole-width rows, which read the x halo, and the ±z and ±y slabs.
func prepareThreaded(r *rank) {
	n := r.sub.Size
	r.geom = &threadedCut{
		rows:   wholeRows(n, stencil.Interior(n)),
		slabs:  appendOnce(nil, stencil.BoundarySlabs(n)[:4]...), // -z, +z, -y, +y
		master: func() { r.ex.finish(r.ex.start(1)); r.ex.finish(r.ex.start(2)) },
	}
}

// stepThreaded is §IV-D: overlap via an asynchronous OpenMP thread instead
// of nonblocking MPI. The master thread performs the blocking MPI
// communication and then joins the computation of the interior points,
// which the other threads began immediately; guided scheduling distributes
// chunks as threads request them so the late-joining master still gets
// work. A barrier (implicit at the end of the parallel region) ensures
// communication has completed before the boundary points are computed.
//
// One departure: the rank exchanges x before the region and the master only
// y and z. With the x halo landed, the region computes whole-width rows
// (x ∈ [0, nx)), ±x walls included, as §IV-C's cut does from its y phase
// on, so no step has a one-point ±x-wall row, which costs several times a
// point of a whole row. The trade is an x exchange the team does not hide.
// The values are the same bits.
func stepThreaded(r *rank, _ int) {
	cut := r.geom.(*threadedCut)
	r.ex.finish(r.ex.start(0))
	// The interior span brackets the whole region: the workers compute for
	// its entire duration while the master's y and z exchange spans land
	// inside it — that containment is the overlap.
	sp := r.span(obs.PhaseInterior, "master+workers")
	r.team.RunWithMaster(cut.master, r.setRegion(cut.rows), 1, r.rows)
	sp.End()
	r.compute(obs.PhaseBoundary, "slabs", cut.slabs...)
	r.commit()
}
