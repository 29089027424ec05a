package impl

import "repro/internal/obs"

// prepareThreaded cuts the local domain for §IV-D: one part for the team.
func prepareThreaded(r *rank) {
	cut := newCut(r.sub.Size, r.ex, 1)
	cut.master = func() { r.ex.exchange(cut.landed, 3) }
	r.geom = cut
}

// stepThreaded is §IV-D: overlap via an asynchronous OpenMP thread instead
// of nonblocking MPI. The master thread performs the blocking MPI
// communication and then joins the computation of the interior points,
// which the other threads began immediately; guided scheduling distributes
// chunks as threads request them so the late-joining master still gets
// work. A barrier (implicit at the end of the parallel region) ensures
// communication has completed before the boundary points are computed.
// Here the master exchanges only the phases that do not land first (see
// newCut), and with none left there is no region. A part smaller than
// minParallelPoints runs on the team of one, as compute's regions do: the
// master exchanges, then computes the part alone. The values are the same
// bits.
func stepThreaded(r *rank, _ int) {
	cut := r.geom.(*overlapCut)
	r.ex.exchange(0, cut.landed)
	if len(cut.parts) > 0 {
		// The master's exchange spans land inside this one: the overlap.
		sp := r.span(obs.PhaseInterior, "master+workers")
		rows, points := r.setRegion(cut.parts[0])
		r.regionTeam(points).RunWithMaster(cut.master, rows, 1, r.rows)
		sp.End()
	}
	cut.finish(r)
}
