package impl

import (
	"repro/internal/gpusim"
	"repro/internal/obs"
)

// stepHybridBulk is §IV-H, bulk synchronous: the task first exchanges inner
// halos and boundaries with the GPU (synchronous PCIe copies) and outer
// halos with its neighbors through MPI, then issues the GPU kernels and
// computes the shell — CPU and GPU computation may overlap, nothing else
// does.
func stepHybridBulk(r *rank, _ int) {
	g, s := r.geom.(*hybridGeom), r.streams[0]
	// Inner boundary: GPU block outer layer → CPU field.
	sp := r.span(obs.PhaseLaunch, "pack outer")
	cur := r.st.cur
	r.launch(s, "pack outer", r.copyLaunch(subsVolume(g.outer)), func() {
		packSubs(cur, g.outer, g.outerBuf.Data())
	})
	r.sync(s)
	r.memcpy(gpusim.DeviceToHost, g.outerBuf, g.hostOuter)
	sp.End()
	g.landOuter(r, r.cur, "inner")
	// Inner halo: CPU ring → GPU halo shell.
	g.packHalo(r, "ring")
	r.memcpy(gpusim.HostToDevice, g.haloBuf, g.hostHalo)
	r.haloUnpackKernel(s, "ring unpack", g.halo, g.haloBuf)
	// Outer halo: MPI with the neighbor tasks.
	r.ex.exchange(0, 3)
	// GPU kernels for the block; the CPU computes the shell meanwhile (the
	// kernels are asynchronous).
	r.wallKernel(s, "block faces", g.outer, nil)
	r.interiorKernel(s, g.interior)
	r.compute(obs.PhaseInterior, "shell", g.walls...)
	r.sync(s)

	// Commit the step on both sides. The host fields hold only the CPU's
	// share: the next step reads its walls, just computed, the block's outer
	// layer, which it lands first, and halos, which it exchanges first.
	r.st.flip()
	r.commit()
}
