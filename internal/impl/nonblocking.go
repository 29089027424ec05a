package impl

import "repro/internal/obs"

// stepNonblocking is §IV-C: the common overlap strategy. The local domain
// is partitioned into interior points (stencil reads no halo) and boundary
// points; the interior is further cut into thirds along z. Each dimension's
// nonblocking exchange brackets one third: the first third computes between
// initiation and completion of the x communication, the second within y,
// the third within z. The boundary points are computed after all
// communication completes.
func stepNonblocking(r *rank, _ int) {
	for dim := 0; dim < 3; dim++ {
		ph := r.ex.start(dim)
		r.compute(obs.PhaseInterior, thirdNames[dim], r.thirds[dim])
		r.ex.finish(ph)
	}
	// "The threads compute the boundary points after the communication."
	r.compute(obs.PhaseBoundary, "slabs", r.boundary...)
	r.commit()
}
