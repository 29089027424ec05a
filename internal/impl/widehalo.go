package impl

import (
	"repro/internal/grid"
	"repro/internal/obs"
)

// stepWideHalo is this reproduction's extension implementation: a
// communication-avoiding variant of the bulk-synchronous code. Instead of
// exchanging a one-point halo every step, it exchanges a W-point halo once
// every W steps and redundantly computes a shrinking extended region in
// between: after the exchange the state is valid on [-W, n+W); inner step
// k computes the region extended by W-1-k points, so after W steps exactly
// the interior is valid again. The trade is W-fold fewer messages (and
// W-fold fewer latency payments) for O(surface·W²) redundant flops — the
// classic optimization for latency-dominated strong scaling, which the
// paper's Figures 3-4 regime motivates but the paper itself does not test.
func stepWideHalo(r *rank, s int) {
	w := r.cur.Halo
	k := s % w
	// A short final burst still only needs validity to shrink to the
	// interior on its last step.
	burst := min(w, r.p.Steps-(s-k))
	if k == 0 {
		r.ex.exchange(0, 3) // one wide exchange covers the burst
	}
	e, n := burst-1-k, r.sub.Size
	r.compute(obs.PhaseInterior, "extended", grid.Subdomain{
		Lo:   grid.Dims{X: -e, Y: -e, Z: -e},
		Size: grid.Dims{X: n.X + 2*e, Y: n.Y + 2*e, Z: n.Z + 2*e},
	})
	// Beyond the region the swapped-in storage is stale; the next inner
	// step reads only its own region, the next burst's exchange rewrites
	// the whole halo.
	r.commit()
}
