package impl

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// newDeviceFor builds the simulated device selected by the options.
func newDeviceFor(o core.Options) *gpusim.Device {
	switch o.GPU {
	case core.GPUC1060:
		return gpusim.NewDevice(gpusim.TeslaC1060(), gpusim.PCIeGen1())
	default:
		return gpusim.NewDevice(gpusim.TeslaC2050(), gpusim.PCIeGen2())
	}
}

// devicePool builds the devices a world shares: with o.TasksPerGPU tasks
// per device, rank r uses pool[r/o.TasksPerGPU]. The default (0 or 1) is
// one device per task.
func devicePool(o core.Options, tasks int) []*gpusim.Device {
	per := o.TasksPerGPU
	if per < 1 {
		per = 1
	}
	groups := (tasks + per - 1) / per
	pool := make([]*gpusim.Device, groups)
	for i := range pool {
		pool[i] = newDeviceFor(o)
	}
	return pool
}

// deviceFor returns rank's device from the pool.
func deviceFor(pool []*gpusim.Device, o core.Options, rank int) *gpusim.Device {
	per := o.TasksPerGPU
	if per < 1 {
		per = 1
	}
	return pool[rank/per]
}

// gpuResident is §IV-E: the problem lives in GPU global memory for the
// whole run — the best-case scenario for GPU performance. The CPU issues
// one kernel call per time step, flipping the two device state buffers,
// and the initial upload and final download are excluded from the timing,
// exactly as in the paper.
type gpuResident struct{}

func (gpuResident) Kind() core.Kind { return core.GPUResident }

func (gpuResident) Run(p core.Problem, o core.Options) (*core.Result, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	o = o.Normalize()
	if o.Tasks != 1 {
		return nil, fmt.Errorf("impl: GPU-resident implementation is single task, got %d", o.Tasks)
	}
	dev := newDeviceFor(o)
	if err := checkBlock(dev, p.N, o.BlockX, o.BlockY); err != nil {
		return nil, err
	}
	traces := poolTraces([]*gpusim.Device{dev}, o)

	initial := grid.NewField(p.N, 1)
	mass0 := initField(nil, nil, initial, p, o, stencil.Whole(p.N))

	var host gpusim.HostClock
	st, h := newDevState(dev, 0, p, p.N, 0, initial)
	host.Set(h)
	defer st.free()
	stream := dev.NewStream("compute")

	// "The CPU and GPU synchronize immediately before timer calls."
	host.Set(dev.Synchronize(host.Now(), stream))
	simStart := host.Now()
	wallStart := time.Now()
	for s := 0; s < p.Steps; s++ {
		if err := o.CheckCancel(); err != nil {
			return nil, fmt.Errorf("impl: run cancelled at step %d: %w", s, err)
		}
		sp := o.Rec.Begin(0, s, obs.PhaseLaunch, "resident")
		host.Set(launchResidentStep(st, stream, host.Now(), o.BlockX, o.BlockY))
		sp.End()
		st.flip()
	}
	host.Set(dev.Synchronize(host.Now(), stream))
	elapsed := time.Since(wallStart)
	simElapsed := (host.Now() - simStart).Seconds()

	final := grid.NewField(p.N, 1)
	host.Set(st.download(host.Now(), final))

	res := &core.Result{Kind: core.GPUResident, Final: final, Stats: map[string]float64{
		"blockx":      float64(o.BlockX),
		"blocky":      float64(o.BlockY),
		"gpu.kernels": float64(dev.Kernels),
		"sim.seconds": simElapsed,
	}}
	for k, v := range mergedOverlapStats(traces) {
		res.Stats[k] = v
	}
	if simElapsed > 0 {
		res.Stats["sim.gf"] = p.Flops() * float64(p.Steps) / simElapsed / 1e9
	}
	finishResult(res, p, o, elapsed, mass0)
	return res, nil
}
