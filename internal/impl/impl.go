// Package impl contains functional implementations of the paper's nine
// strategies (§IV-A through §IV-I), built on the reproduction's substrates:
// internal/par in place of OpenMP, internal/mpi in place of MPI, and
// internal/gpusim in place of CUDA Fortran. Every implementation integrates
// the same advection problem with the same row kernel (internal/stencil) —
// CPU threads and emulated GPU kernels alike — and must produce the
// single-task result to the bit; the tests enforce this cross-implementation
// agreement, which is the reproduction's analog of the paper's norm-based
// verification (§IV-A).
//
// These runners establish functional correctness and expose the real
// concurrency structure (what can overlap with what). The performance of
// the paper's machines at scale is modelled separately by internal/perf.
//
// An implementation is a schedule: a row of the table below declaring what
// its ranks need, and one time step over a rank's state, in a file named
// after its paper section. Everything around the step — validation, the
// world, per-rank state, timing, gathering, stats — is the one scaffold of
// scaffold.go. A new schedule is one file and one row.
package impl

import "repro/internal/core"

// schedule is one implementation as data. It is the core.Runner the
// registry hands out.
type schedule struct {
	kind core.Kind

	wide bool // halos Options.HaloWidth deep instead of one point
	cpu  bool // CPU threads compute points: a team of Options.Threads, a next-state field, the host operator

	device  deviceOver // what of the rank's subdomain lives on a simulated GPU
	streams []string   // the device streams the step issues work to, by trace name

	prepare func(r *rank)        // optional: geometry and buffers reused across steps
	step    func(r *rank, s int) // time step s
}

// deviceOver says which part of a rank's subdomain is device resident.
type deviceOver int

const (
	noDevice    deviceOver = iota
	wholeDomain            // §IV-E…G: all of it
	innerBlock             // §IV-H, §IV-I: the block inside the CPU's box (Fig. 1)
)

func (s schedule) Kind() core.Kind { return s.kind }

var schedules = []schedule{
	{kind: core.SingleTask, cpu: true, step: stepSingle},
	{kind: core.BulkSync, cpu: true, step: stepBulk},
	{kind: core.NonblockingOverlap, cpu: true, prepare: prepareNonblocking, step: stepNonblocking},
	{kind: core.ThreadedOverlap, cpu: true, prepare: prepareThreaded, step: stepThreaded},
	{kind: core.GPUResident, device: wholeDomain, streams: []string{"compute"}, step: stepGPUResident},
	{kind: core.GPUBulkSync, device: wholeDomain, streams: []string{"interior"},
		prepare: prepareGPUMPI, step: stepGPUBulk},
	{kind: core.GPUStreams, device: wholeDomain, streams: []string{"interior", "boundary"},
		prepare: prepareGPUMPI, step: stepGPUStreams},
	{kind: core.HybridBulkSync, cpu: true, device: innerBlock, streams: []string{"interior"},
		prepare: prepareHybrid, step: stepHybridBulk},
	{kind: core.HybridOverlap, cpu: true, device: innerBlock, streams: []string{"interior", "boundary"},
		prepare: prepareHybridOverlap, step: stepHybridOverlap},
	{kind: core.WideHaloExt, cpu: true, wide: true, step: stepWideHalo},
}

func init() {
	for _, s := range schedules {
		core.Register(s.kind, func() core.Runner { return s })
	}
}
