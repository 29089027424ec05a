package impl

import "repro/internal/obs"

// stepThreaded is §IV-D: overlap via an asynchronous OpenMP thread instead
// of nonblocking MPI. The master thread performs the whole (blocking,
// dimension-serialized) MPI communication and then joins the computation of
// the interior points, which the other threads began immediately; guided
// scheduling distributes chunks as threads request them so the late-joining
// master still gets work. A barrier (implicit at the end of the parallel
// region) ensures communication has completed before the boundary points
// are computed.
func stepThreaded(r *rank, _ int) {
	// The interior span brackets the whole region: the workers compute for
	// its entire duration while the master's exchange spans land inside it
	// — that containment is the overlap.
	sp := r.span(obs.PhaseInterior, "master+workers")
	r.team.RunWithMaster(r.exchangeAll, r.setRegion(r.interior), 1, r.rows)
	sp.End()
	r.compute(obs.PhaseBoundary, "slabs", r.boundary...)
	r.commit()
}
