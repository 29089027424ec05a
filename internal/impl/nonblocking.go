package impl

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

// nonblockingOverlap is §IV-C: the common overlap strategy. The local
// domain is partitioned into interior points (stencil reads no halo) and
// boundary points; the interior is further cut into thirds along z. Each
// dimension's nonblocking exchange brackets one third: the first third
// computes between initiation and completion of the x communication, the
// second within y, the third within z. The boundary points are computed
// after all communication completes.
type nonblockingOverlap struct{}

func (nonblockingOverlap) Kind() core.Kind { return core.NonblockingOverlap }

func (nonblockingOverlap) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runMPI(core.NonblockingOverlap, p, o, func(rc rankCtx) {
		thirds := stencil.InteriorThirds(rc.cur.N)
		boundary := stencil.BoundarySlabs(rc.cur.N)
		for s := 0; s < rc.p.Steps; s++ {
			checkCancelRank(rc.o)
			rc.ex.setStep(s)
			for dim := 0; dim < 3; dim++ {
				ph := rc.ex.start(dim)
				sub := thirds[dim]
				sp := rc.span(s, obs.PhaseInterior, "third."+dimNames[dim])
				rc.team.ParallelFor(stencil.Rows(sub), par.Static, 0, func(lo, hi int) {
					rc.op.ApplyRows(rc.cur, rc.nxt, sub, lo, hi)
				})
				sp.End()
				rc.ex.finish(ph)
			}
			// "The threads compute the boundary points after the
			// communication."
			sp := rc.span(s, obs.PhaseBoundary, "slabs")
			for _, sub := range boundary {
				if sub.Empty() {
					continue
				}
				sub := sub
				rc.team.ParallelFor(stencil.Rows(sub), par.Static, 0, func(lo, hi int) {
					rc.op.ApplyRows(rc.cur, rc.nxt, sub, lo, hi)
				})
			}
			sp.End()
			commitStep(rc.o.Rec, rc.c.Rank(), s, rc.cur, rc.nxt)
		}
	})
}
