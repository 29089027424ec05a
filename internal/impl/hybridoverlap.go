package impl

import (
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// prepareHybridOverlap adds to the hybrid geometry the cut §IV-I computes
// around its exchanges: each dimension's pair of walls, less the points
// whose stencil reads an MPI halo, and those points as six slabs.
func prepareHybridOverlap(r *rank) {
	prepareHybrid(r)
	n, g := r.sub.Size, r.geom.(*hybridGeom)
	box, in := grid.BoxSplit{Local: n, T: r.o.BoxThickness}, stencil.Interior(n)
	g.boundary = appendOnce(nil, stencil.BoundarySlabs(n)...)
	for dim := range g.innerWalls {
		for _, w := range box.WallsByDim(dim) {
			g.innerWalls[dim] = append(g.innerWalls[dim], grid.Intersect(w, in))
		}
	}
}

// stepHybridOverlap is §IV-I, the most extensive overlap: the GPU interior
// kernel is issued first on one stream; the inner-halo upload, GPU boundary
// kernels, and boundary download run asynchronously on a second stream; MPI
// communication in each dimension overlaps CPU computation of the interior
// points of that dimension's walls; and the CPU finishes with the outer
// boundary points before synchronizing the streams. CPU computation, GPU
// computation, MPI communication, and CPU-GPU communication can all be in
// flight at once, which is why this implementation can win by more than a
// factor of two.
func stepHybridOverlap(r *rank, _ int) {
	g, s1, s2 := r.geom.(*hybridGeom), r.streams[0], r.streams[1]
	// 1. GPU interior kernel, stream 1.
	sp := r.span(obs.PhaseLaunch, "interior")
	r.interiorKernel(s1, g.interior)
	sp.End()
	// 2. Asynchronous inner-halo traffic and boundary kernels, stream 2.
	// The download is staged and landed after the CPU has finished reading
	// the current ring.
	g.packHalo(r, "ring")
	r.memcpyAsync(s2, gpusim.HostToDevice, g.haloBuf, g.hostHalo)
	r.haloUnpackKernel(s2, "ring unpack", g.halo, g.haloBuf)
	r.wallKernel(s2, "block faces", g.outer, g.outerBuf)
	r.memcpyAsync(s2, gpusim.DeviceToHost, g.outerBuf, g.hostOuter)
	// 3. MPI in each dimension overlapped with the CPU interior wall points
	// of that dimension.
	for dim := 0; dim < 3; dim++ {
		ph := r.ex.start(dim)
		r.compute(obs.PhaseInterior, wallsNames[dim], g.innerWalls[dim]...)
		r.ex.finish(ph)
	}
	// 4. Outer boundary points, then stream synchronization.
	r.compute(obs.PhaseBoundary, "outer", g.boundary...)
	r.sync(s1, s2)
	// Land the new block outer layer beside the new walls: together they
	// are every host point the next step's shell computation reads.
	g.landOuter(r, r.nxt, "inner")

	// Commit the step on both sides.
	r.st.flip()
	r.commit()
}
