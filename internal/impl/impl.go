// Package impl contains functional implementations of the paper's nine
// strategies (§IV-A through §IV-I), built on the reproduction's substrates:
// internal/par in place of OpenMP, internal/mpi in place of MPI, and
// internal/gpusim in place of CUDA Fortran. Every implementation integrates
// the same advection problem and must produce the single-task result up to
// roundoff; the tests enforce this cross-implementation agreement, which is
// the reproduction's analog of the paper's norm-based verification (§IV-A).
//
// These runners establish functional correctness and expose the real
// concurrency structure (what can overlap with what). The performance of
// the paper's machines at scale is modelled separately by internal/perf.
package impl

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/par"
	"repro/internal/stencil"
)

func init() {
	core.Register(core.SingleTask, func() core.Runner { return singleTask{} })
	core.Register(core.BulkSync, func() core.Runner { return bulkSync{} })
	core.Register(core.NonblockingOverlap, func() core.Runner { return nonblockingOverlap{} })
	core.Register(core.ThreadedOverlap, func() core.Runner { return threadedOverlap{} })
	core.Register(core.GPUResident, func() core.Runner { return gpuResident{} })
	core.Register(core.GPUBulkSync, func() core.Runner { return gpuBulkSync{} })
	core.Register(core.GPUStreams, func() core.Runner { return gpuStreams{} })
	core.Register(core.HybridBulkSync, func() core.Runner { return hybridRunner{overlap: false} })
	core.Register(core.HybridOverlap, func() core.Runner { return hybridRunner{overlap: true} })
}

// initField is the start of every Run: it fills f, a rank's local field
// over the box sub of the global grid, with the initial state — the rows of
// a checkpointed field, or the Gaussian wave through its per-axis tables —
// threaded over the team (the GPU set-ups have none and pass nil). Only a
// verified run reads the initial mass, so only then is it computed, as the
// Allreduce of the ranks' own sums (c is nil for a single task); no run
// builds a global-sized temporary.
func initField(c *mpi.Comm, team *par.Team, f *grid.Field, p core.Problem, o core.Options, sub grid.Subdomain) (mass0 float64) {
	if p.Initial != nil {
		f.CopyBox(grid.Dims{}, p.Initial, sub)
	} else {
		tab := p.Wave.Table(p.N, p.C, 0, sub)
		if team == nil {
			tab.Fill(f, 0, tab.Rows())
		} else {
			team.ParallelFor(tab.Rows(), par.Static, 0, func(lo, hi int) { tab.Fill(f, lo, hi) })
		}
	}
	if !o.Verify {
		return 0
	}
	mass := []float64{f.InteriorSum()}
	if c != nil {
		c.Allreduce(mpi.OpSum, mass)
	}
	return mass[0]
}

// gather assembles the global field on rank 0 from each rank's local
// interior, row by row; other ranks return nil. Rank 0 copies its own rows
// straight from local.
func gather(c *mpi.Comm, d grid.Decomp, local *grid.Field) *grid.Field {
	var flat []float64
	if c.Rank() != 0 {
		flat = make([]float64, local.N.Volume())
		grid.NewFieldOn(local.N, 0, flat).CopyInteriorFrom(local)
	}
	parts := c.Gather(0, flat)
	if c.Rank() != 0 {
		return nil
	}
	global := grid.NewField(d.N, 1)
	for r, part := range parts {
		sub, src := d.Sub(r), local
		if r != 0 {
			src = grid.NewFieldOn(sub.Size, 0, part)
		}
		global.CopyBox(sub.Lo, src, stencil.Whole(sub.Size))
	}
	return global
}

// finishResult fills the verification and throughput fields of a result.
func finishResult(res *core.Result, p core.Problem, o core.Options, elapsed time.Duration, initialMass float64) {
	res.Elapsed = elapsed
	if s := elapsed.Seconds(); s > 0 {
		res.GF = p.Flops() * float64(p.Steps) / s / 1e9
	}
	if o.Verify && res.Final != nil {
		res.Norms = analyticTable(p, stencil.Whole(p.N)).Norms(res.Final)
		res.MassDrift = math.Abs(res.Final.InteriorSum() - initialMass)
	}
}

// analyticTable is the exact solution at the end of the run over box.
func analyticTable(p core.Problem, box grid.Subdomain) *grid.GaussianTable {
	return p.Wave.Table(p.N, p.C, p.T0+p.Nu*float64(p.Steps), box)
}

// checkMPIOptions validates distributed-run options against the problem.
func checkMPIOptions(p core.Problem, o core.Options) error {
	if o.Tasks < 1 {
		return fmt.Errorf("impl: task count %d < 1", o.Tasks)
	}
	min := p.N.X
	if p.N.Y < min {
		min = p.N.Y
	}
	if p.N.Z < min {
		min = p.N.Z
	}
	if o.Tasks > min {
		return fmt.Errorf("impl: %d tasks too many for grid %v (subdomains thinner than the stencil)", o.Tasks, p.N)
	}
	return nil
}

// opFor prepares the stencil operator for fields shaped like f.
func opFor(p core.Problem, f *grid.Field) *stencil.Op {
	return stencil.NewOp(stencil.TableI(p.C, p.Nu), f)
}

// distributedNorms computes the error norms against the analytic solution
// the way a real MPI code does (paper §IV-A records norms): each rank
// reduces its own subdomain with the thread team, in one pass, then the
// squared sums and maxima are combined across ranks with Allreduce. Every
// rank returns the same global norms.
func distributedNorms(c *mpi.Comm, team *par.Team, p core.Problem, sub grid.Subdomain, local *grid.Field) grid.Norms {
	tab := analyticTable(p, sub)
	sums := make([]float64, team.Size())
	maxs := make([]float64, team.Size())
	team.Run(func(tid int) {
		lo, hi := par.StaticChunk(tab.Rows(), team.Size(), tid)
		sums[tid], maxs[tid] = tab.DiffSums(local, lo, hi)
	})
	sumSq, maxAbs := []float64{0}, []float64{0}
	for tid := range sums {
		sumSq[0] += sums[tid]
		maxAbs[0] = math.Max(maxAbs[0], maxs[tid])
	}
	c.Allreduce(mpi.OpSum, sumSq)
	c.Allreduce(mpi.OpMax, maxAbs)
	return grid.Norms{
		L2:   math.Sqrt(sumSq[0] / float64(p.N.Volume())),
		LInf: maxAbs[0],
	}
}

// checkCancelRank polls the run's cancellation context from inside a rank
// goroutine and panics with the context error when it fires. The panic
// poisons the world (unblocking ranks already waiting in an exchange), and
// safeWorldRun converts it back into an error; cancelOr then maps whatever
// rank's panic won the race onto the context error, so callers see a clean
// cancellation instead of a poisoned-world message.
func checkCancelRank(o core.Options) {
	if err := o.CheckCancel(); err != nil {
		panic(err)
	}
}

// cancelOr maps a world-poisoning failure back onto the cancellation that
// caused it: when the options context is cancelled, any rank error —
// whichever rank's panic was observed first — is reported as the context
// error. Genuine failures pass through unchanged.
func cancelOr(o core.Options, err error) error {
	if err == nil {
		return nil
	}
	if cerr := o.CheckCancel(); cerr != nil {
		return fmt.Errorf("impl: run cancelled: %w", cerr)
	}
	return err
}

// safeWorldRun executes the world and converts a rank panic (which
// mpi.World.Run re-panics after poisoning the world) into an error, so the
// public Run API reports failures instead of crashing the caller.
func safeWorldRun(w *mpi.World, fn func(*mpi.Comm)) (err error) {
	defer func() {
		if p := recover(); p != nil {
			if e, ok := p.(error); ok {
				err = e
				return
			}
			err = fmt.Errorf("impl: %v", p)
		}
	}()
	w.Run(fn)
	return nil
}
