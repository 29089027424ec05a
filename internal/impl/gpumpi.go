package impl

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// gpuRankCtx is the per-rank state of the GPU MPI implementations
// (§IV-F, §IV-G): the task's whole subdomain lives on the device, and the
// CPU keeps a host-side shadow field whose shell holds the boundary data
// in flight between GPU and network.
type gpuRankCtx struct {
	p   core.Problem
	o   core.Options
	c   *mpi.Comm
	d   grid.Decomp
	sub grid.Subdomain

	dev    *gpusim.Device
	st     *devState
	shadow *grid.Field
	ex     *exchanger
	host   *gpusim.HostClock
}

// span opens a wall-clock span attributed to this rank (no-op when the run
// carries no recorder).
func (rc gpuRankCtx) span(step int, ph obs.Phase, label string) obs.Active {
	return rc.o.Rec.Begin(rc.c.Rank(), step, ph, label)
}

// runMPIGPU is the shared scaffold of §IV-F and §IV-G: world setup,
// device state per rank, barrier-bracketed timing, gathering, and stats.
func runMPIGPU(kind core.Kind, p core.Problem, o core.Options, steps func(gpuRankCtx)) (*core.Result, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	o = o.Normalize()
	if err := checkMPIOptions(p, o); err != nil {
		return nil, err
	}
	d := grid.NewDecomp(p.N, o.Tasks)
	w := mpi.NewWorld(o.Tasks)

	var (
		mu      sync.Mutex
		final   *grid.Field
		elapsed time.Duration
		mass0   float64
		simSec  float64
		msgs    float64
		values  float64
	)
	pool := devicePool(o, o.Tasks)
	traces := poolTraces(pool, o)
	runErr := safeWorldRun(w, func(c *mpi.Comm) {
		sub := d.Sub(c.Rank())
		dev := deviceFor(pool, o, c.Rank())
		if err := checkBlock(dev, sub.Size, o.BlockX, o.BlockY); err != nil {
			panic(err)
		}

		local := grid.NewField(sub.Size, 1)
		m0 := initField(c, nil, local, p, o, sub)
		shadow := local.Clone()

		var host gpusim.HostClock
		st, h := newDevState(dev, 0, p, sub.Size, 1, local)
		host.Set(h)
		defer st.free()

		rc := gpuRankCtx{
			p: p, o: o, c: c, d: d, sub: sub,
			dev: dev, st: st, shadow: shadow,
			ex:   newExchanger(c, d, shadow),
			host: &host,
		}
		rc.ex.setObs(o.Rec)

		c.Barrier()
		simStart := host.Now()
		t0 := time.Now()
		steps(rc)
		c.Barrier()
		dt := time.Since(t0)
		simDt := (host.Now() - simStart).Seconds()

		host.Set(st.download(host.Now(), local))
		g := gather(c, d, local)
		stats := c.Stats()
		mu.Lock()
		msgs += float64(stats.SentMessages)
		values += float64(stats.SentValues)
		if simDt > simSec {
			simSec = simDt // slowest rank bounds the simulated step time
		}
		if c.Rank() == 0 {
			final, elapsed, mass0 = g, dt, m0
		}
		mu.Unlock()
	})

	if runErr != nil {
		return nil, cancelOr(o, runErr)
	}
	var kernels, bytesPCI float64
	for _, dev := range pool {
		kernels += float64(dev.Kernels)
		bytesPCI += float64(dev.BytesH2D + dev.BytesD2H)
	}
	res := &core.Result{Kind: kind, Final: final, Stats: map[string]float64{
		"tasks":        float64(o.Tasks),
		"blockx":       float64(o.BlockX),
		"blocky":       float64(o.BlockY),
		"mpi.messages": msgs,
		"mpi.bytes":    values * 8,
		"gpu.kernels":  kernels,
		"pcie.bytes":   bytesPCI,
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
