package impl

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

// singleTask is the paper's baseline (§IV-A): one task, OpenMP threading.
// Each time step performs the paper's three algorithmic steps:
//
//  1. copy periodic boundaries (doubly nested loops, outer loop threaded),
//  2. compute the new state with Eq. 2 (triply nested loops, outermost two
//     collapsed and threaded), and
//  3. make the new state the current state.
//
// Step 3 is the one deliberate departure from the paper, here and in every
// CPU step loop: the paper's codes copy the new state over the current one
// with a third threaded sweep; these swap the two fields' storage, which
// costs nothing and changes no value, because every halo point a step reads
// is rewritten by that step's own periodic copy or exchange. The span that
// marked the copy stays, labelled "swap", as the step-commit marker of the
// traces. internal/perf still charges the copy: it models the paper's codes.
type singleTask struct{}

func (singleTask) Kind() core.Kind { return core.SingleTask }

func (singleTask) Run(p core.Problem, o core.Options) (*core.Result, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	o = o.Normalize()
	if o.Tasks != 1 {
		o.Tasks = 1 // single task by definition
	}
	team := par.NewTeam(o.Threads)
	defer team.Close()
	team.SetRecorder(o.Rec, 0)

	cur := grid.NewField(p.N, 1)
	mass0 := initField(nil, team, cur, p, o, stencil.Whole(p.N))
	nxt := grid.NewField(p.N, 1)
	op := opFor(p, cur)
	whole := stencil.Whole(p.N)
	rows := stencil.Rows(whole)

	start := time.Now()
	for s := 0; s < p.Steps; s++ {
		if err := o.CheckCancel(); err != nil {
			return nil, fmt.Errorf("impl: run cancelled at step %d: %w", s, err)
		}
		// Step 1: periodic halo copy. The three dimension sweeps are each
		// threaded over their outer loop; keeping them serialized preserves
		// the corner-propagation order.
		sp := o.Rec.Begin(0, s, obs.PhaseHaloUnpack, "periodic")
		copyPeriodicHalosParallel(team, cur)
		sp.End()

		// Step 2: compute, collapse(2) over the (k, j) loops.
		sp = o.Rec.Begin(0, s, obs.PhaseInterior, "whole")
		team.ParallelFor(rows, par.Static, 0, func(lo, hi int) {
			op.ApplyRows(cur, nxt, whole, lo, hi)
		})
		sp.End()

		// Step 3: the new state becomes the current state.
		commitStep(o.Rec, 0, s, cur, nxt)
	}
	elapsed := time.Since(start)

	res := &core.Result{Kind: core.SingleTask, Final: cur, Stats: map[string]float64{
		"threads": float64(o.Threads),
	}}
	finishResult(res, p, o, elapsed, mass0)
	return res, nil
}

// commitStep ends a time step by swapping the storage of cur and nxt, under
// the copy-phase span the traces key a finished step on.
func commitStep(rec *obs.Recorder, rank, step int, cur, nxt *grid.Field) {
	sp := rec.Begin(rank, step, obs.PhaseCopy, "swap")
	cur.Swap(nxt)
	sp.End()
}

// copyRows copies the x-rows of sub with flattened (k, j) indices in
// [lo, hi) from src to dst. Only the hybrid runners' CPU shell still copies:
// it is a few walls of the domain, and their GPU block already flips.
func copyRows(src, dst *grid.Field, sub grid.Subdomain, lo, hi int) {
	ny := sub.Size.Y
	nx := sub.Size.X
	for r := lo; r < hi; r++ {
		k := sub.Lo.Z + r/ny
		j := sub.Lo.Y + r%ny
		s := src.Idx(sub.Lo.X, j, k)
		d := dst.Idx(sub.Lo.X, j, k)
		copy(dst.Data()[d:d+nx], src.Data()[s:s+nx])
	}
}

// copyPeriodicHalosParallel performs the single-task periodic boundary
// copy with each dimension sweep threaded over its outer loop, exactly the
// structure of §IV-A Step 1. Correctness requires the x sweep to finish
// before y and y before z, which the implicit barrier after each
// ParallelFor provides.
func copyPeriodicHalosParallel(team *par.Team, f *grid.Field) {
	n := f.N
	h := f.Halo
	d := f.Data()
	// x sweep over (k, j).
	team.ParallelFor(n.Z*n.Y, par.Static, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			k := r / n.Y
			j := r % n.Y
			for g := 1; g <= h; g++ {
				d[f.Idx(-g, j, k)] = d[f.Idx(n.X-g, j, k)]
				d[f.Idx(n.X-1+g, j, k)] = d[f.Idx(g-1, j, k)]
			}
		}
	})
	// y sweep over k, x range widened.
	team.ParallelFor(n.Z, par.Static, 0, func(lo, hi int) {
		for k := lo; k < hi; k++ {
			for g := 1; g <= h; g++ {
				w := n.X + 2*h
				src1 := f.Idx(-h, n.Y-g, k)
				dst1 := f.Idx(-h, -g, k)
				src2 := f.Idx(-h, g-1, k)
				dst2 := f.Idx(-h, n.Y-1+g, k)
				copy(d[dst1:dst1+w], d[src1:src1+w])
				copy(d[dst2:dst2+w], d[src2:src2+w])
			}
		}
	})
	// z sweep over j, x and y ranges widened.
	team.ParallelFor(n.Y+2*h, par.Static, 0, func(lo, hi int) {
		for r := lo; r < hi; r++ {
			j := r - h
			for g := 1; g <= h; g++ {
				w := n.X + 2*h
				src1 := f.Idx(-h, j, n.Z-g)
				dst1 := f.Idx(-h, j, -g)
				src2 := f.Idx(-h, j, g-1)
				dst2 := f.Idx(-h, j, n.Z-1+g)
				copy(d[dst1:dst1+w], d[src1:src1+w])
				copy(d[dst2:dst2+w], d[src2:src2+w])
			}
		}
	})
}
