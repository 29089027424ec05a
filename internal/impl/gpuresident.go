package impl

import (
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// stepGPUResident is §IV-E: the problem lives in GPU global memory for the
// whole run — the best-case scenario for GPU performance. The CPU issues
// one kernel call per time step, flipping the two device state buffers.
//
// The paper's kernel follows the algorithm of Micikevicius: two-dimensional
// thread blocks iterate over z, staging an xy slab (halo included) in
// shared memory; halo threads beyond the boundary of the global domain copy
// from the opposite boundary to implement periodicity; interior threads
// compute and store to global memory. gpusim charges the launch for that
// geometry. Its body here is the same work in two calls — the periodic copy
// into the state's halo shell, then the shared row kernel over the domain.
func stepGPUResident(r *rank, _ int) {
	sp := r.span(obs.PhaseLaunch, "resident")
	n := r.box.Size
	cur, nxt, op := r.st.cur, r.st.nxt, r.st.op
	r.launch(r.streams[0], "resident step", gpusim.StencilLaunch(n.X, n.Y, n.Z, r.o.BlockX, r.o.BlockY), func() {
		cur.CopyPeriodicHalos()
		op.Apply(cur, nxt, r.whole)
	})
	sp.End()
	r.st.flip()
}
