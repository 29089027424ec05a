package impl

import "repro/internal/obs"

// prepareNonblocking cuts the local domain for §IV-C: a part per later phase.
func prepareNonblocking(r *rank) { r.geom = newCut(r.sub.Size, r.ex, 3) }

// stepNonblocking is §IV-C: the common overlap strategy. The local domain
// is partitioned into interior points (stencil reads no halo) and boundary
// points; the interior is further cut into thirds along z. Each dimension's
// nonblocking exchange brackets one third: the first third computes between
// initiation and completion of the x communication, the second within y,
// the third within z. The boundary points are computed after all
// communication completes. Here only a message after x brackets a part (see
// newCut), so the thirds are halves when y and z are messages and nothing
// hides an x message. The values are the same bits.
func stepNonblocking(r *rank, _ int) {
	cut := r.geom.(*overlapCut)
	r.ex.exchange(0, cut.landed)
	for i, part := range cut.parts {
		ph := r.ex.start(cut.landed + i)
		r.compute(obs.PhaseInterior, thirdNames[ph.dim], part)
		r.ex.finish(ph)
	}
	cut.finish(r)
}
