package impl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

// hybridRunner implements §IV-H (overlap=false) and §IV-I (overlap=true):
// CPU and GPU computation with the box decomposition of Fig. 1. Each
// task's domain is partitioned between CPU and GPU as a block in a box:
// the GPU computes the interior block, the CPU computes the enclosing
// shell whose wall thickness (Options.BoxThickness) balances the load.
//
// §IV-H is bulk synchronous: the task first exchanges inner halos and
// boundaries with the GPU (synchronous PCIe copies) and outer halos with
// its neighbors through MPI, then issues the GPU kernels and computes the
// shell — CPU and GPU computation may overlap, nothing else does.
//
// §IV-I attempts the most extensive overlap: the GPU interior kernel is
// issued first on one stream; the inner-halo upload, GPU boundary kernels,
// and boundary download run asynchronously on a second stream; MPI
// communication in each dimension overlaps CPU computation of the interior
// points of that dimension's walls; and the CPU finishes with the outer
// boundary points before synchronizing the streams. CPU computation, GPU
// computation, MPI communication, and CPU-GPU communication can all be in
// flight at once, which is why this implementation can win by more than a
// factor of two.
type hybridRunner struct {
	overlap bool
}

func (h hybridRunner) Kind() core.Kind {
	if h.overlap {
		return core.HybridOverlap
	}
	return core.HybridBulkSync
}

func (h hybridRunner) Run(p core.Problem, o core.Options) (*core.Result, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	o = o.Normalize()
	if err := checkMPIOptions(p, o); err != nil {
		return nil, err
	}
	d := grid.NewDecomp(p.N, o.Tasks)
	// Every rank must be able to carve a GPU block out of its subdomain.
	for r := 0; r < o.Tasks; r++ {
		if _, err := grid.NewBoxSplit(d.Sub(r).Size, o.BoxThickness); err != nil {
			return nil, fmt.Errorf("impl: rank %d: %w", r, err)
		}
	}
	w := mpi.NewWorld(o.Tasks)

	kind := h.Kind()
	pool := devicePool(o, o.Tasks)
	traces := poolTraces(pool, o)
	var (
		mu      sync.Mutex
		final   *grid.Field
		elapsed time.Duration
		mass0   float64
		simSec  float64
		msgs    float64
		values  float64
	)
	runErr := safeWorldRun(w, func(c *mpi.Comm) {
		sub := d.Sub(c.Rank())
		local := sub.Size
		box, err := grid.NewBoxSplit(local, o.BoxThickness)
		if err != nil {
			panic(err)
		}
		inner := box.Inner()

		dev := deviceFor(pool, o, c.Rank())
		if err := checkBlock(dev, inner.Size, o.BlockX, o.BlockY); err != nil {
			panic(err)
		}
		team := par.NewTeam(o.Threads)
		defer team.Close()
		team.SetRecorder(o.Rec, c.Rank())

		cpuCur := grid.NewField(local, 1)
		m0 := initField(c, team, cpuCur, p, o, sub)
		cpuNxt := grid.NewField(local, 1)
		op := opFor(p, cpuCur)
		ex := newExchanger(c, d, cpuCur)
		ex.setObs(o.Rec)
		rank := c.Rank()
		span := func(step int, ph obs.Phase, label string) obs.Active {
			return o.Rec.Begin(rank, step, ph, label)
		}

		// Device state over the inner block.
		blockInit := grid.NewField(inner.Size, 1)
		blockInit.CopyBox(grid.Dims{}, cpuCur, inner)
		var host gpusim.HostClock
		st, h0 := newDevState(dev, 0, p, inner.Size, 1, blockInit)
		host.Set(h0)
		defer st.free()

		// Geometry, all reusable across steps.
		ringGPU := haloSlabs(inner.Size, 1)            // GPU halo shell, device coords
		ringCPU := offsetSubs(ringGPU, inner.Lo)       // same region, CPU coords
		outerGPU := stencil.BoundarySlabs(inner.Size)  // block outer layer, device coords
		outerCPU := offsetSubs(outerGPU, inner.Lo)     // same region, CPU coords
		walls := box.Walls()                           // CPU shell, thickness T
		domainBoundary := stencil.BoundarySlabs(local) // outermost CPU layer
		innerWalls := make([][2]grid.Subdomain, 3)     // per-dim wall parts away from MPI halos
		for dim := 0; dim < 3; dim++ {
			wpair := box.WallsByDim(dim)
			for s, wsub := range wpair {
				innerWalls[dim][s] = grid.Intersect(wsub, stencil.Interior(local))
			}
		}
		blockInterior := stencil.Interior(inner.Size)

		ringBuf := dev.Alloc(subsVolume(ringGPU))
		outBuf := dev.Alloc(subsVolume(outerGPU))
		defer dev.Free(ringBuf)
		defer dev.Free(outBuf)
		hostRing := make([]float64, ringBuf.Len())
		hostOut := make([]float64, outBuf.Len())

		s1 := dev.NewStream("interior")
		s2 := s1
		if h.overlap {
			s2 = dev.NewStream("boundary")
		}

		computeSub := func(subd grid.Subdomain, dst *grid.Field) {
			if subd.Empty() {
				return
			}
			team.ParallelFor(stencil.Rows(subd), par.Static, 0, func(lo, hi int) {
				op.ApplyRows(cpuCur, dst, subd, lo, hi)
			})
		}
		copySub := func(subd grid.Subdomain) {
			if subd.Empty() {
				return
			}
			team.ParallelFor(stencil.Rows(subd), par.Static, 0, func(lo, hi int) {
				copyRows(cpuNxt, cpuCur, subd, lo, hi)
			})
		}

		c.Barrier()
		simStart := host.Now()
		t0 := time.Now()
		for step := 0; step < p.Steps; step++ {
			checkCancelRank(o)
			ex.setStep(step)
			if !h.overlap {
				// §IV-H: all exchanges up front, synchronously.
				// Inner boundary: GPU block outer layer → CPU field.
				sp := span(step, obs.PhaseLaunch, "pack outer")
				host.Set(launchPackKernel(st, s1, host.Now(), "pack outer", outerGPU, outBuf, o.BlockX, o.BlockY))
				host.Set(s1.Synchronize(host.Now()))
				host.Set(dev.Memcpy(host.Now(), gpusim.DeviceToHost, outBuf, hostOut))
				sp.End()
				sp = span(step, obs.PhaseHaloUnpack, "inner")
				unpackSubs(cpuCur, outerCPU, hostOut)
				sp.End()
				// Inner halo: CPU ring → GPU halo shell.
				sp = span(step, obs.PhaseHaloPack, "ring")
				packSubs(cpuCur, ringCPU, hostRing)
				sp.End()
				host.Set(dev.Memcpy(host.Now(), gpusim.HostToDevice, ringBuf, hostRing))
				host.Set(launchHaloUnpack(st, s1, host.Now(), "ring unpack", ringGPU, ringBuf, o.BlockX, o.BlockY))
				// Outer halo: MPI with the neighbor tasks.
				ex.exchangeAll()
				// GPU kernels for the block; CPU computes the shell
				// meanwhile (the kernels are asynchronous).
				host.Set(launchWallCompute(st, s1, host.Now(), "block faces", outerGPU, nil, o.BlockX, o.BlockY))
				host.Set(launchInteriorStep(st, s1, host.Now(), blockInterior, o.BlockX, o.BlockY))
				sp = span(step, obs.PhaseInterior, "shell")
				for _, wsub := range walls {
					computeSub(wsub, cpuNxt)
				}
				sp.End()
				host.Set(dev.Synchronize(host.Now(), s1))
			} else {
				// §IV-I: maximum overlap.
				// 1. GPU interior kernel, stream 1.
				sp := span(step, obs.PhaseLaunch, "interior")
				host.Set(launchInteriorStep(st, s1, host.Now(), blockInterior, o.BlockX, o.BlockY))
				sp.End()
				// 2. Asynchronous inner-halo traffic and boundary kernels,
				// stream 2. The download is staged and landed after the
				// CPU has finished reading the current ring.
				sp = span(step, obs.PhaseHaloPack, "ring")
				packSubs(cpuCur, ringCPU, hostRing)
				sp.End()
				host.Set(dev.MemcpyAsync(host.Now(), s2, gpusim.HostToDevice, ringBuf, hostRing))
				host.Set(launchHaloUnpack(st, s2, host.Now(), "ring unpack", ringGPU, ringBuf, o.BlockX, o.BlockY))
				host.Set(launchWallCompute(st, s2, host.Now(), "block faces", outerGPU, outBuf, o.BlockX, o.BlockY))
				host.Set(dev.MemcpyAsync(host.Now(), s2, gpusim.DeviceToHost, outBuf, hostOut))
				// 3. MPI in each dimension overlapped with the CPU interior
				// wall points of that dimension.
				for dim := 0; dim < 3; dim++ {
					ph := ex.start(dim)
					sp = span(step, obs.PhaseInterior, "walls."+dimNames[dim])
					for _, wsub := range innerWalls[dim] {
						computeSub(wsub, cpuNxt)
					}
					sp.End()
					ex.finish(ph)
				}
				// 4. Outer boundary points, then stream synchronization.
				sp = span(step, obs.PhaseBoundary, "outer")
				for _, bsub := range domainBoundary {
					computeSub(bsub, cpuNxt)
				}
				sp.End()
				host.Set(dev.Synchronize(host.Now(), s1, s2))
				// Land the new block outer layer for the next step's shell
				// computation.
				sp = span(step, obs.PhaseHaloUnpack, "inner")
				unpackSubs(cpuNxt, outerCPU, hostOut)
				sp.End()
			}

			// Commit the step: flip the GPU buffers; copy the CPU-owned
			// regions of the next state into the current state. The CPU side
			// copies where the other step loops swap: it owns a few walls of
			// the fields, and the block's outer layer lands in them by copy.
			st.flip()
			sp := span(step, obs.PhaseCopy, "")
			for _, wsub := range walls {
				copySub(wsub)
			}
			if h.overlap {
				for _, osub := range outerCPU {
					copySub(osub)
				}
			}
			sp.End()
		}
		c.Barrier()
		dt := time.Since(t0)
		simDt := (host.Now() - simStart).Seconds()

		// Assemble the rank's full local field: CPU shell + GPU block.
		blockFinal := grid.NewField(inner.Size, 1)
		host.Set(st.download(host.Now(), blockFinal))
		cpuCur.CopyBox(inner.Lo, blockFinal, stencil.Whole(inner.Size))
		g := gather(c, d, cpuCur)
		stats := c.Stats()
		mu.Lock()
		msgs += float64(stats.SentMessages)
		values += float64(stats.SentValues)
		if simDt > simSec {
			simSec = simDt
		}
		if c.Rank() == 0 {
			final, elapsed, mass0 = g, dt, m0
		}
		mu.Unlock()
	})

	if runErr != nil {
		return nil, cancelOr(o, runErr)
	}
	var kernels, pciByte float64
	for _, dev := range pool {
		kernels += float64(dev.Kernels)
		pciByte += float64(dev.BytesH2D + dev.BytesD2H)
	}
	res := &core.Result{Kind: kind, Final: final, Stats: map[string]float64{
		"tasks":        float64(o.Tasks),
		"threads":      float64(o.Threads),
		"thickness":    float64(o.BoxThickness),
		"blockx":       float64(o.BlockX),
		"blocky":       float64(o.BlockY),
		"mpi.messages": msgs,
		"mpi.bytes":    values * 8,
		"gpu.kernels":  kernels,
		"pcie.bytes":   pciByte,
		"sim.seconds":  simSec,
	}}
	for k, v := range mergedOverlapStats(traces) {
		res.Stats[k] = v
	}
	if simSec > 0 {
		res.Stats["sim.gf"] = p.Flops() * float64(p.Steps) / simSec / 1e9
	}
	finishResult(res, p, o, elapsed, mass0)
	return res, nil
}
