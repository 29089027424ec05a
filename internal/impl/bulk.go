package impl

import (
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

// bulkSync is §IV-B: distributed-memory parallelism added to the
// single-task implementation. Each step performs the whole halo exchange
// (all three serialized dimension phases) before any computation starts —
// bulk synchronous — then computes and copies locally.
type bulkSync struct{}

func (bulkSync) Kind() core.Kind { return core.BulkSync }

func (bulkSync) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return runMPI(core.BulkSync, p, o, func(rc rankCtx) {
		whole := stencil.Whole(rc.cur.N)
		rows := stencil.Rows(whole)
		for s := 0; s < rc.p.Steps; s++ {
			checkCancelRank(rc.o)
			rc.ex.setStep(s)
			rc.ex.exchangeAll()
			sp := rc.span(s, obs.PhaseInterior, "whole")
			rc.team.ParallelFor(rows, par.Static, 0, func(lo, hi int) {
				rc.op.ApplyRows(rc.cur, rc.nxt, whole, lo, hi)
			})
			sp.End()
			commitStep(rc.o.Rec, rc.c.Rank(), s, rc.cur, rc.nxt)
		}
	})
}

// rankCtx is the per-rank state handed to an MPI implementation's step
// loop.
type rankCtx struct {
	p     core.Problem
	o     core.Options
	c     *mpi.Comm
	d     grid.Decomp
	sub   grid.Subdomain
	team  *par.Team
	cur   *grid.Field
	nxt   *grid.Field
	op    *stencil.Op
	ex    *exchanger
	stats map[string]float64 // optional extra stats from the rank
}

// span opens a wall-clock span attributed to this rank (no-op when the run
// carries no recorder).
func (rc rankCtx) span(step int, ph obs.Phase, label string) obs.Active {
	return rc.o.Rec.Begin(rc.c.Rank(), step, ph, label)
}

// runMPI is the shared scaffold of the CPU MPI implementations: it spawns
// the world, builds each rank's local state, runs the provided step loop
// with the paper's barrier-bracketed timing, gathers the result on rank 0,
// and aggregates communication statistics.
func runMPI(kind core.Kind, p core.Problem, o core.Options, steps func(rankCtx)) (*core.Result, error) {
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
		mu       sync.Mutex
		final    *grid.Field
		elapsed  time.Duration
		mass0    float64
		msgs     float64
		values   float64
		distL2   float64
		distLInf float64
	)
	runErr := safeWorldRun(w, func(c *mpi.Comm) {
		sub := d.Sub(c.Rank())
		team := par.NewTeam(o.Threads)
		defer team.Close()
		cur := grid.NewField(sub.Size, 1)
		m0 := initField(c, team, cur, p, o, sub)
		nxt := grid.NewField(sub.Size, 1)
		rc := rankCtx{
			p: p, o: o, c: c, d: d, sub: sub, team: team,
			cur: cur, nxt: nxt,
			op: opFor(p, cur),
			ex: newExchanger(c, d, cur),
		}
		rc.ex.setObs(o.Rec)
		team.SetRecorder(o.Rec, c.Rank())

		// "We perform a barrier immediately before measuring the start
		// time and the end time."
		c.Barrier()
		t0 := time.Now()
		steps(rc)
		c.Barrier()
		dt := time.Since(t0)

		var dnorms grid.Norms
		if o.Verify {
			dnorms = distributedNorms(c, team, p, sub, cur)
		}
		g := gather(c, d, cur)
		st := c.Stats()
		mu.Lock()
		msgs += float64(st.SentMessages)
		values += float64(st.SentValues)
		if c.Rank() == 0 {
			final, elapsed, mass0 = g, dt, m0
			distL2, distLInf = dnorms.L2, dnorms.LInf
		}
		mu.Unlock()
	})

	if runErr != nil {
		return nil, cancelOr(o, runErr)
	}
	res := &core.Result{Kind: kind, Final: final, Stats: map[string]float64{
		"tasks":         float64(o.Tasks),
		"threads":       float64(o.Threads),
		"mpi.messages":  msgs,
		"mpi.values":    values,
		"mpi.bytes":     values * 8,
		"mpi.msgs/step": msgs / float64(max(1, p.Steps)),
	}}
	if o.Verify {
		res.Stats["dist.l2"] = distL2
		res.Stats["dist.linf"] = distLInf
	}
	finishResult(res, p, o, elapsed, mass0)
	return res, nil
}
