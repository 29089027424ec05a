package impl

import (
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// stepGPUStreams is §IV-G: the same data layout as §IV-F, but the interior
// kernel is issued to one CUDA stream before the CPU performs MPI
// communication, and the halo upload, boundary kernels, and boundary
// download go to a second stream — so the interior computation can overlap
// the MPI communication, the PCIe transfers, and (on devices with
// concurrent kernels) the boundary computation. The CPU ends the step by
// synchronizing the two streams.
func stepGPUStreams(r *rank, _ int) {
	g, s1, s2 := r.geom.(*devShell), r.streams[0], r.streams[1]
	// Interior kernel first, so it runs while the CPU communicates.
	sp := r.span(obs.PhaseLaunch, "interior")
	r.interiorKernel(s1, g.interior)
	sp.End()
	r.ex.exchange(0, 3)

	g.packHalo(r, "shell")
	r.memcpyAsync(s2, gpusim.HostToDevice, g.haloBuf, g.hostHalo)
	r.haloUnpackKernel(s2, "halo unpack", g.halo, g.haloBuf)
	r.wallKernel(s2, "faces", g.outer, g.outerBuf)
	r.memcpyAsync(s2, gpusim.DeviceToHost, g.outerBuf, g.hostOuter)
	r.sync(s1, s2)

	// Land the new boundary in the shadow shell, flip the state buffers.
	g.landOuter(r, r.cur, "shell")
	r.st.flip()
}
