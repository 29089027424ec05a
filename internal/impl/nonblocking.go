package impl

import (
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// nonblockingCut is the local domain as stepNonblocking computes it: during[d]
// while dimension d's exchange is in flight, after once all three have
// landed. The four regions tile the domain, each point once.
type nonblockingCut struct {
	during [3][]grid.Subdomain
	after  []grid.Subdomain
}

// prepareNonblocking cuts the local domain for §IV-C, as stepNonblocking
// says. The first third's ±x walls are computed with the z and y slabs; at
// the head of the y-phase region they measured no faster.
func prepareNonblocking(r *rank) {
	n := r.sub.Size
	thirds, slabs := stencil.InteriorThirds(n), stencil.BoundarySlabs(n) // slabs: -z, +z, -y, +y, -x, +x
	cut := &nonblockingCut{
		during: [3][]grid.Subdomain{{thirds[0]}, {wholeRows(n, thirds[1])}, {wholeRows(n, thirds[2])}},
		after:  appendOnce(nil, slabs[:4]...),
	}
	for _, w := range slabs[4:] {
		cut.after = appendOnce(cut.after, grid.Intersect(w, wholeRows(n, thirds[0])))
	}
	r.geom = cut
}

// stepNonblocking is §IV-C: the common overlap strategy. The local domain
// is partitioned into interior points (stencil reads no halo) and boundary
// points; the interior is further cut into thirds along z. Each dimension's
// nonblocking exchange brackets one third: the first third computes between
// initiation and completion of the x communication, the second within y,
// the third within z. The boundary points are computed after all
// communication completes.
//
// One departure: the ±x walls beside the second and third thirds are not
// left for the end. Their stencil reads the x halo, which has landed by the
// time those thirds run, so those thirds are computed as whole-width rows
// (x ∈ [0, nx)), as §IV-I computes wall points inside later exchange phases.
// A one-point ±x-wall row costs several times a point of a whole row, enough
// to undo the overlap on small subdomains; only the first third's walls,
// which must wait for the x halo, are still computed that way. The values
// are the same bits.
func stepNonblocking(r *rank, _ int) {
	cut := r.geom.(*nonblockingCut)
	for dim := 0; dim < 3; dim++ {
		ph := r.ex.start(dim)
		r.compute(obs.PhaseInterior, thirdNames[dim], cut.during[dim]...)
		r.ex.finish(ph)
	}
	// "The threads compute the boundary points after the communication."
	r.compute(obs.PhaseBoundary, "slabs", cut.after...)
	r.commit()
}
