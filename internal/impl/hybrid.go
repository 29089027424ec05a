package impl

import "repro/internal/grid"

// hybridGeom is the geometry §IV-H and §IV-I share: CPU and GPU computation
// with the box decomposition of Fig. 1. Each task's domain is partitioned
// between CPU and GPU as a block in a box: the GPU computes the interior
// block (the devShell's domain), the CPU computes the enclosing shell whose
// wall thickness (Options.BoxThickness) balances the load.
type hybridGeom struct {
	*devShell
	walls      []grid.Subdomain    // the CPU shell, thickness T
	innerWalls [3][]grid.Subdomain // §IV-I: per dimension, the wall parts away from the MPI halos
	boundary   []grid.Subdomain    // §IV-I: the slabs whose stencil reads an MPI halo, computed last
}

func prepareHybrid(r *rank) {
	box := grid.BoxSplit{Local: r.sub.Size, T: r.o.BoxThickness}
	r.geom = &hybridGeom{devShell: newDevShell(r), walls: box.Walls()}
}
