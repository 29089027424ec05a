package impl

import "repro/internal/gpusim"

// stepGPUBulk is §IV-F: multi-GPU with CPUs performing MPI communication,
// bulk synchronously. Each task keeps its whole subdomain on the GPU. Per
// step the CPU exchanges boundary data with its neighbors through the
// host-side shadow of the boundary shell, uploads the assembled halo shell,
// runs the face and interior kernels, and downloads the freshly computed
// boundary for the next step's exchange. Nothing overlaps: every phase
// completes before the next begins, on a single stream.
func stepGPUBulk(r *rank, _ int) {
	g, s := r.geom.(*devShell), r.streams[0]
	r.ex.exchange(0, 3)

	g.packHalo(r, "shell")
	r.memcpy(gpusim.HostToDevice, g.haloBuf, g.hostHalo)
	r.haloUnpackKernel(s, "halo unpack", g.halo, g.haloBuf)
	r.wallKernel(s, "faces", g.outer, g.outerBuf)
	r.interiorKernel(s, g.interior)
	r.sync(s)
	r.memcpy(gpusim.DeviceToHost, g.outerBuf, g.hostOuter)

	// Land the new boundary in the shadow shell, flip the state buffers.
	g.landOuter(r, r.cur, "shell")
	r.st.flip()
}
