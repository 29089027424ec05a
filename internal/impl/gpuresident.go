package impl

import (
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// stepGPUResident is §IV-E: the problem lives in GPU global memory for the
// whole run — the best-case scenario for GPU performance. The CPU issues
// one kernel call per time step, flipping the two device state buffers.
//
// The kernel follows the algorithm of Micikevicius: two-dimensional thread
// blocks iterate over z; each iteration stages an xy slab (halo included)
// in shared memory; halo threads beyond the boundary of the global domain
// copy from the opposite boundary to implement periodicity; interior
// threads compute and store to global memory.
func stepGPUResident(r *rank, _ int) {
	sp := r.span(obs.PhaseLaunch, "resident")
	n, bx, by := r.box.Size, r.o.BlockX, r.o.BlockY
	cur, nxt, op := r.st.cur, r.st.nxt, r.st.op
	r.launch(r.streams[0], "resident step", gpusim.StencilLaunch(n.X, n.Y, n.Z, bx, by), func() {
		runTiledKernel(op, cur, nxt, r.whole, bx, by, true)
	})
	sp.End()
	r.st.flip()
}
