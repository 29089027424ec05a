package impl

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

// threadedOverlap is §IV-D: overlap via an asynchronous OpenMP thread
// instead of nonblocking MPI. The master thread performs the whole
// (blocking, dimension-serialized) MPI communication and then joins the
// computation of the interior points, which the other threads began
// immediately; guided scheduling distributes chunks as threads request
// them so the late-joining master still gets work. A barrier (implicit at
// the end of the parallel region) ensures communication has completed
// before the boundary points are computed.
type threadedOverlap struct{}

func (threadedOverlap) Kind() core.Kind { return core.ThreadedOverlap }

func (threadedOverlap) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runMPI(core.ThreadedOverlap, p, o, func(rc rankCtx) {
		interior := stencil.Interior(rc.cur.N)
		boundary := stencil.BoundarySlabs(rc.cur.N)
		rows := stencil.Rows(interior)
		for s := 0; s < rc.p.Steps; s++ {
			checkCancelRank(rc.o)
			rc.ex.setStep(s)
			// The interior span brackets the whole region: the workers
			// compute for its entire duration while the master's exchange
			// spans land inside it — that containment is the overlap.
			sp := rc.span(s, obs.PhaseInterior, "master+workers")
			rc.team.RunWithMaster(func() {
				rc.ex.exchangeAll()
			}, rows, 1, func(lo, hi int) {
				rc.op.ApplyRows(rc.cur, rc.nxt, interior, lo, hi)
			})
			sp.End()
			sp = rc.span(s, obs.PhaseBoundary, "slabs")
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
