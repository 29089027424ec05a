package impl

import (
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
)

// overlapCut is the local domain as §IV-C and §IV-D compute it, each point
// once: the phases below landed land before any compute, each later phase
// is in flight while parts are computed, and after waits for every phase.
type overlapCut struct {
	landed int              // x and each copy-only phase right after it
	parts  []grid.Subdomain // the interior, whole in every landed dimension, cut along z
	after  []grid.Subdomain // the later phases' ±z and ±y slabs, or the whole domain if none is later
	master func()           // §IV-D: the master's share, the later phases, bound once
}

// newCut cuts an n-point local domain into at most parts interior parts,
// departing from §IV-C and §IV-D: x lands first, and so does each phase
// after it whose neighbours are all the rank itself (ex.self), which has no
// message to hide. The interior shrinks only in the later phases'
// dimensions, so no row is narrower than the domain, and is cut along z into
// one part per later phase, or parts if fewer. An interior too thin to hide
// anything behind lands every phase first.
func newCut(n grid.Dims, ex *exchanger, parts int) *overlapCut {
	c := &overlapCut{landed: 1}
	for c.landed < 3 && ex.self[c.landed] {
		c.landed++
	}
	in := grid.Subdomain{Size: n}
	if c.landed < 2 {
		in.Lo.Y, in.Size.Y = 1, n.Y-2
	}
	if c.landed < 3 {
		in.Lo.Z, in.Size.Z = 1, n.Z-2
	}
	if in.Empty() {
		c.landed, in = 3, grid.Subdomain{Size: n}
	}
	k := min(parts, 3-c.landed)
	for i := 0; i < k; i++ {
		lo, hi := par.StaticChunk(in.Size.Z, k, i)
		c.parts = append(c.parts, grid.Subdomain{Lo: grid.Dims{Y: in.Lo.Y, Z: in.Lo.Z + lo}, Size: grid.Dims{X: n.X, Y: in.Size.Y, Z: hi - lo}})
	}
	c.after = appendOnce(nil, grid.BoxSplit{Local: n, T: 1}.Walls()[:2*(3-c.landed)]...) // -z, +z, -y, +y
	if k == 0 {
		c.after = []grid.Subdomain{in}
	}
	return c
}

// finish computes what waits for every phase and commits the step.
func (c *overlapCut) finish(r *rank) {
	ph, label := obs.PhaseBoundary, "slabs" // "The threads compute the boundary points after the communication."
	if len(c.parts) == 0 {
		ph, label = obs.PhaseInterior, "whole"
	}
	r.compute(ph, label, c.after...)
	r.commit()
}
