package main

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"time"

	advect "repro"
	"repro/internal/checkpoint"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/perf"
	"repro/internal/stencil"
	"repro/internal/vtime"
)

// Computed, not measured: the kernel's arithmetic and its ideal memory
// traffic (one read and one write of a float64 per point).
const (
	flopsPerPoint = stencil.FlopsPerPoint
	bytesPerPoint = 16
)

// probeReps is how many batches a probe takes the median of.
const probeReps = 3

// probe times fn under a bench-side span and returns seconds per call.
func probe(c *runCtx, name string, fn func()) float64 {
	id := c.tr.begin(name, 0, 0)
	sec := timeOp(probeReps, c.sz.probeDur, fn)
	c.tr.end(id, 0)
	return sec
}

// gaussianField returns a field of the default problem's initial condition.
func gaussianField(n int) *grid.Field {
	f := grid.NewField(grid.Uniform(n), 1)
	grid.FillGaussian(f, grid.DefaultGaussian(f.N))
	f.CopyPeriodicHalos()
	return f
}

// probeHost measures the memory system the kernel numbers are judged
// against, on arrays of the large working-set size. The arrays sit in the
// shared L3 of the reference host, not in DRAM; the bytes are computed.
func probeHost(c *runCtx) {
	n := c.sz.probeN * c.sz.probeN * c.sz.probeN
	a, b, d := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range b {
		b[i], d[i] = float64(i), 1
	}
	sec := probe(c, "host.copy", func() { copy(a, b) })
	c.m.put("host.copy_gb_s", 16*float64(n)/sec/1e9)
	sec = probe(c, "host.triad", func() {
		for i := range a {
			a[i] = b[i] + 3*d[i]
		}
	})
	c.m.put("host.triad_gb_s", 24*float64(n)/sec/1e9)
}

func probeStencil(c *runCtx) {
	m := c.m
	var whole128 float64
	for _, n := range []int{c.sz.probeN / 8, c.sz.probeN / 2, c.sz.probeN} {
		src, dst := gaussianField(n), grid.NewField(grid.Uniform(n), 1)
		op := stencil.NewOp(stencil.TableI(advect.NewProblem(n, 1).C, jitteredNu(0)), src)
		pts := float64(src.N.Volume())
		sec := probe(c, "stencil.apply", func() { op.Apply(src, dst, stencil.Whole(src.N)) })
		m.put("stencil.apply_gf."+sizeTag(c, n), flopsPerPoint*pts/sec/1e9)
		if n != c.sz.probeN {
			continue
		}
		whole128 = sec
		m.put("stencil.whole_ns_per_pt.n128", sec/pts*1e9)

		// The same kernel cut the way the overlap schedules cut it.
		slabs := stencil.BoundarySlabs(src.N)
		var slabPts float64
		for _, s := range slabs {
			slabPts += float64(s.Volume())
		}
		sec = probe(c, "stencil.apply.slabs", func() {
			for _, s := range slabs {
				op.Apply(src, dst, s)
			}
		})
		m.put("stencil.slabs_ns_per_pt.n128", sec/slabPts*1e9)
		thirds := stencil.InteriorThirds(src.N)
		var thirdPts float64
		for _, s := range thirds {
			thirdPts += float64(s.Volume())
		}
		sec = probe(c, "stencil.apply.thirds", func() {
			for _, s := range thirds {
				op.Apply(src, dst, s)
			}
		})
		m.put("stencil.thirds_ns_per_pt.n128", sec/thirdPts*1e9)

		team := par.NewTeam(2)
		sub := stencil.Whole(src.N)
		sec = probe(c, "stencil.apply_rows.t2", func() {
			team.ParallelFor(stencil.Rows(sub), par.Static, 0, func(lo, hi int) {
				op.ApplyRows(src, dst, sub, lo, hi)
			})
		})
		team.Close()
		m.put("stencil.rows_t2_speedup.n128", whole128/sec)
		if triad, ok := m["host.triad_gb_s"]; ok && triad.Value > 0 {
			m.put("stencil.roofline_frac.n128", bytesPerPoint*pts/whole128/1e9/triad.Value)
		}
	}
}

// sizeTag names a probe size by the full-size grid it stands for, so that
// metric names do not change when the smoke test shrinks the grids.
func sizeTag(c *runCtx, n int) string {
	switch n {
	case c.sz.probeN:
		return "n128"
	case c.sz.probeN / 2:
		return "n64"
	}
	return "n16"
}

func probeGrid(c *runCtx) {
	m := c.m
	big := gaussianField(c.sz.probeN)
	dims := []string{"x", "y", "z"}
	for dim, tag := range dims {
		buf := make([]float64, big.FaceCount(dim))
		bytes := 8 * float64(len(buf))
		sec := probe(c, "grid.pack_face", func() { big.PackFace(dim, 1, 1, buf) })
		m.put("grid.pack_gb_s."+tag, bytes/sec/1e9)
		sec = probe(c, "grid.unpack_face", func() { big.UnpackFace(dim, -1, 1, buf) })
		m.put("grid.unpack_gb_s."+tag, bytes/sec/1e9)
	}
	small := gaussianField(c.sz.probeN / 8)
	m.put("grid.periodic_halo_us.n16", probe(c, "grid.periodic_halos", small.CopyPeriodicHalos)*1e6)
	m.put("grid.periodic_halo_us.n128", probe(c, "grid.periodic_halos", big.CopyPeriodicHalos)*1e6)

	dst := grid.NewField(big.N, 1)
	pts := float64(big.N.Volume())
	sec := probe(c, "grid.copy_interior", func() { dst.CopyInteriorFrom(big) })
	m.put("grid.copy_interior_gb_s.n128", 16*pts/sec/1e9)

	mid := grid.NewField(grid.Uniform(c.sz.probeN/2), 1)
	g := grid.DefaultGaussian(mid.N)
	midPts := float64(mid.N.Volume())
	sec = probe(c, "grid.fill", func() { grid.FillGaussian(mid, g) })
	m.put("grid.fill_ns_per_pt", sec/midPts*1e9)
	vel := advect.NewProblem(8, 1).C
	sec = probe(c, "grid.norms", func() {
		grid.NormsAgainst(mid, func(i, j, k int) float64 { return g.Analytic(mid.N, vel, 0.5, i, j, k) })
	})
	m.put("grid.norms_ns_per_pt", sec/midPts*1e9)
}

// worldLoop starts a fresh world in which every rank calls prepare once,
// which allocates what the rank needs and returns the body it then runs
// iters times. It returns seconds per iteration; world start-up and prepare
// are kept out of the timing by a barrier.
func worldLoop(size, iters int, prepare func(cm *mpi.Comm) func()) float64 {
	var sec float64
	mpi.NewWorld(size).Run(func(cm *mpi.Comm) {
		body := prepare(cm)
		cm.Barrier()
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			body()
		}
		cm.Barrier()
		if cm.Rank() == 0 {
			sec = time.Since(t0).Seconds() / float64(iters)
		}
	})
	return sec
}

func pingpong(values, iters int) float64 {
	return worldLoop(2, iters, func(cm *mpi.Comm) func() {
		buf := make([]float64, values)
		if cm.Rank() == 0 {
			return func() {
				cm.Send(1, 7, buf)
				cm.Recv(1, 8, buf)
			}
		}
		return func() {
			cm.Recv(0, 7, buf)
			cm.Send(0, 8, buf)
		}
	}) / 2
}

func probeMPI(c *runCtx) {
	m := c.m
	id := c.tr.begin("mpi.world_run", 0, 0)
	m.put("mpi.pingpong_us.8B", pingpong(1, 4000)*1e6)
	m.put("mpi.pingpong_us.128KB", pingpong(16384, 400)*1e6)
	barrier := func(cm *mpi.Comm) func() { return cm.Barrier }
	m.put("mpi.barrier_us.t2", worldLoop(2, 4000, barrier)*1e6)

	// Heap allocations per message: a one-value send and its matching
	// receive between two ranks, receive buffers reused.
	const msgs = 2000
	var before, after runtime.MemStats
	mpi.NewWorld(2).Run(func(cm *mpi.Comm) {
		buf := make([]float64, 1)
		cm.Barrier()
		if cm.Rank() == 0 {
			runtime.ReadMemStats(&before)
		}
		cm.Barrier()
		for i := 0; i < msgs; i++ {
			if cm.Rank() == 0 {
				cm.Send(1, 7, buf)
			} else {
				cm.Recv(0, 7, buf)
			}
		}
		cm.Barrier()
		if cm.Rank() == 0 {
			runtime.ReadMemStats(&after)
		}
	})
	m.put("mpi.allocs_per_msg", float64(after.Mallocs-before.Mallocs)/msgs)

	half := c.sz.probeN * c.sz.probeN * c.sz.probeN / 2
	m.put("mpi.gather_ms.n128_t2", worldLoop(2, 3, func(cm *mpi.Comm) func() {
		send := make([]float64, half)
		return func() { cm.Gather(0, send) }
	})*1e3)
	m.put("mpi.world_start_us.t2", timeOp(probeReps, c.sz.probeDur, func() {
		mpi.NewWorld(2).Run(func(*mpi.Comm) {})
	})*1e6)
	c.tr.end(id, 0)
}

func probePar(c *runCtx) {
	m := c.m
	team := par.NewTeam(2)
	m.put("par.parallel_for_us.t2", probe(c, "par.parallel_for", func() {
		team.ParallelFor(2, par.Static, 0, func(lo, hi int) {})
	})*1e6)
	m.put("par.run_with_master_us.t2", probe(c, "par.run_with_master", func() {
		team.RunWithMaster(func() {}, 2, 1, func(lo, hi int) {})
	})*1e6)
	team.Close()
	m.put("par.team_start_us.t2", probe(c, "par.new_team", func() { par.NewTeam(2).Close() })*1e6)
}

func probeGPU(c *runCtx) {
	m := c.m
	dev := gpusim.NewDevice(gpusim.TeslaC2050(), gpusim.PCIeGen2())
	stream := dev.NewStream("probe")
	launch := gpusim.StencilLaunch(32, 32, 32, 16, 8)
	m.put("gpusim.launch_us", probe(c, "gpusim.launch", func() {
		dev.Launch(vtime.Time(0), stream, "empty", launch, func() {})
	})*1e6)
	n := c.sz.probeN / 2
	words := n * n * n
	buf, host := dev.Alloc(words), make([]float64, words)
	sec := probe(c, "gpusim.memcpy", func() { dev.Memcpy(vtime.Time(0), gpusim.HostToDevice, buf, host) })
	m.put("gpusim.memcpy_gb_s", 16*float64(words)/sec/1e9)
	dev.Free(buf)

	// The emulated kernel's cost on the host: a GPU-resident run is kernel
	// launches and nothing else inside its stepping loop.
	const steps = 4
	id := c.tr.begin("impl.run.gpu", 0, 0)
	res, err := advect.Run(advect.GPUResident, advect.NewProblem(n, steps), gpuT1)
	c.tr.end(id, float64(words*steps))
	c.ops.attempted++
	if err != nil {
		c.ops.fail("gpu-resident probe: %v", err)
		return
	}
	m.put("gpusim.kernel_ns_per_pt.n64", res.Elapsed.Seconds()/float64(words*steps)*1e9)
}

func probeCheckpoint(c *runCtx) {
	m := c.m
	f := gaussianField(c.sz.sessN)
	meta := checkpoint.Meta{N: f.N, C: advect.NewProblem(8, 1).C, Nu: jitteredNu(0), StepsDone: 5}
	var buf bytes.Buffer
	c.ops.attempted++
	fail := func(err error) { c.ops.fail("checkpoint probe: %v", err) }
	sec := probe(c, "checkpoint.save", func() {
		buf.Reset()
		if err := checkpoint.Save(&buf, meta, f); err != nil {
			fail(err)
		}
	})
	size := float64(buf.Len())
	m.put("checkpoint.bytes", size)
	m.put("checkpoint.save_mb_s", size/sec/1e6)
	data := buf.Bytes()
	sec = probe(c, "checkpoint.load", func() {
		if _, _, err := checkpoint.Load(bytes.NewReader(data)); err != nil {
			fail(err)
		}
	})
	m.put("checkpoint.load_mb_s", size/sec/1e6)
	// Temp file and rename on whatever disk holds bench/out: host-dependent.
	path := filepath.Join(c.outDir, "probe.ckpt")
	sec = probe(c, "checkpoint.save_file", func() {
		if err := checkpoint.SaveFile(path, meta, f); err != nil {
			fail(err)
		}
	})
	_ = os.Remove(path) // scratch under bench/out
	m.put("checkpoint.savefile_ms", sec*1e3)
}

func probeObsPerf(c *runCtx) {
	m := c.m
	rec := obs.NewRecorder()
	m.put("obs.span_ns", probe(c, "obs.begin_end", func() {
		rec.Begin(0, 0, obs.PhaseInterior, "").End()
	})*1e9)
	mach, err := advect.MachineByName(cachedMachine)
	kind, kerr := advect.ParseKind(cachedKind)
	c.ops.attempted++
	if err != nil || kerr != nil {
		c.ops.fail("perf probe: %v %v", err, kerr)
		return
	}
	m.put("perf.evaluate_us", probe(c, "perf.evaluate", func() {
		if _, err := perf.Evaluate(perf.Config{M: mach, Kind: kind, Cores: cachedCores}); err != nil {
			c.ops.fail("perf.Evaluate: %v", err)
		}
	})*1e6)
}

// ladderReps is how many 2S-step runs of each schedule the ladder takes the
// median of. The runs go round-robin over the schedules, so that drift in
// the host's speed falls on a schedule and on its base alike, and each
// overlap ratio is the median of the rounds' own ratios.
const ladderReps = 3

// ladder runs every schedule at the workload's problem size, once at S steps
// and ladderReps times at 2S, and derives the per-schedule layer numbers: the
// paper's barrier-bracketed step time, the run overhead around it,
// allocations, the overlap ratios with their bases, and the share of
// communication hidden.
func ladder(c *runCtx, w workload) {
	m := c.m
	n, steps := w.ladder()
	p1, p2 := advect.NewProblem(n, steps), advect.NewProblem(n, 2*steps)
	type rung struct {
		res                *advect.Result // of the last 2S run
		mallocs1, mallocs2 uint64
		bytes2             uint64
		stepMS, overheadMS []float64
	}
	run := func(s schedule, p advect.Problem, rec *advect.Recorder) (res *advect.Result, wall float64, mallocs, bytes uint64, ok bool) {
		c.ops.attempted++
		opt := s.opt
		opt.Rec = rec
		var a, b runtime.MemStats
		runtime.ReadMemStats(&a)
		id := c.tr.begin("impl.run."+s.name, 0, 0)
		t0 := time.Now()
		res, err := advect.Run(s.kind, p, opt)
		wall = time.Since(t0).Seconds()
		c.tr.end(id, float64(p.N.Volume())*float64(p.Steps))
		runtime.ReadMemStats(&b)
		if err != nil {
			c.ops.fail("ladder %s: %v", s.name, err)
			return nil, 0, 0, 0, false
		}
		return res, wall, b.Mallocs - a.Mallocs, b.TotalAlloc - a.TotalAlloc, true
	}

	all := append(append([]schedule(nil), schedules...), singleT1)
	rungs := map[string]*rung{}
	for _, s := range all { // the S-step runs also warm each schedule up
		if _, _, mallocs, _, ok := run(s, p1, nil); ok {
			rungs[s.name] = &rung{mallocs1: mallocs}
		}
	}
	for rep := 0; rep < ladderReps; rep++ {
		for _, s := range all {
			r := rungs[s.name]
			if r == nil {
				continue
			}
			res, wall, mallocs, bytes, ok := run(s, p2, nil)
			if !ok {
				delete(rungs, s.name)
				continue
			}
			r.res, r.mallocs2, r.bytes2 = res, mallocs, bytes
			r.stepMS = append(r.stepMS, res.Elapsed.Seconds()/float64(p2.Steps)*1e3)
			r.overheadMS = append(r.overheadMS, (wall-res.Elapsed.Seconds())*1e3)
		}
	}

	for _, s := range all {
		r := rungs[s.name]
		if r == nil {
			continue
		}
		m.putSamples("impl.step_ms."+s.name, r.stepMS)
		if s.name == singleT1.name {
			continue
		}
		m.putSamples("impl.overhead_ms."+s.name, r.overheadMS)
		m.put("impl.allocs_per_step."+s.name, (float64(r.mallocs2)-float64(r.mallocs1))/float64(steps))
		switch s.name {
		case "single", "bulk", "gpu_streams", "hybrid_overlap":
			m.put("impl.alloc_mb_per_run."+s.name, float64(r.bytes2)/1e6)
		}
		if gf, ok := r.res.Stats["sim.gf"]; ok {
			switch s.name {
			case "gpu_bulk", "gpu_streams", "hybrid_bulk", "hybrid_overlap":
				m.put("gpusim.sim_gf."+s.name, gf)
			}
		}
		if s.kind.UsesMPI() {
			m.put("mpi.msgs_per_step."+s.name, r.res.Stats["mpi.messages"]/float64(p2.Steps))
			switch s.name {
			case "bulk":
				m.put("mpi.bytes_per_step.bulk", r.res.Stats["mpi.bytes"]/float64(p2.Steps))
			case "wide_halo":
				m.put("mpi.bytes_per_step.wide_halo", 8*r.res.Stats["mpi.values"]/float64(p2.Steps))
			}
		}
		pair := map[string]string{"nonblocking": obs.PairMPICompute, "threaded": obs.PairMPICompute,
			"gpu_streams": obs.PairPCIeKernel, "hybrid_overlap": obs.PairPCIeKernel}[s.name]
		if pair != "" {
			rec := advect.NewRecorder()
			if _, _, _, _, ok := run(s, p1, rec); ok {
				m.put("impl.hidden_frac."+s.name, rec.Report().Pair(pair).Fraction)
			}
		}
	}

	// ratio records base ÷ own step time, round by round.
	ratio := func(metric, own, base string, scale float64) {
		o, b := rungs[own], rungs[base]
		if o == nil || b == nil {
			return
		}
		rs := make([]float64, len(o.stepMS))
		for i := range rs {
			rs[i] = b.stepMS[i] / o.stepMS[i] * scale
		}
		m.putSamples(metric, rs)
	}
	ratio("impl.overlap_ratio.nonblocking", "nonblocking", "bulk", 1)
	ratio("impl.overlap_ratio.threaded", "threaded", "bulk", 1)
	ratio("impl.overlap_ratio.gpu_streams", "gpu_streams", "gpu_bulk", 1)
	ratio("impl.overlap_ratio.hybrid_overlap", "hybrid_overlap", "hybrid_bulk", 1)
	ratio("impl.par_eff.single", "single", singleT1.name, 0.5)

	// The kernel's share of a bulk-synchronous step: one sweep of the whole
	// grid by stencil.Apply, split over the two tasks, against the step.
	src, dst := gaussianField(n), grid.NewField(grid.Uniform(n), 1)
	op := stencil.NewOp(stencil.TableI(p1.C, jitteredNu(0)), src)
	sweep := probe(c, "stencil.apply", func() { op.Apply(src, dst, stencil.Whole(src.N)) })
	if bulk := rungs["bulk"]; bulk != nil {
		m.put("impl.kernel_share.bulk", sweep*1e3/2/median(bulk.stepMS))
	}
}
