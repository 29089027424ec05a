package impl

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

func init() {
	core.Register(core.WideHaloExt, func() core.Runner { return wideHalo{} })
}

// wideHalo is this reproduction's extension implementation: a
// communication-avoiding variant of the bulk-synchronous code. Instead of
// exchanging a one-point halo every step, it exchanges a W-point halo once
// every W steps and redundantly computes a shrinking extended region in
// between: after the exchange the state is valid on [-W, n+W); inner step
// k computes the region extended by W-1-k points, so after W steps exactly
// the interior is valid again. The trade is W-fold fewer messages (and
// W-fold fewer latency payments) for O(surface·W²) redundant flops — the
// classic optimization for latency-dominated strong scaling, which the
// paper's Figures 3-4 regime motivates but the paper itself does not test.
type wideHalo struct{}

func (wideHalo) Kind() core.Kind { return core.WideHaloExt }

func (wideHalo) Run(p core.Problem, o core.Options) (*core.Result, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	o = o.Normalize()
	if err := checkMPIOptions(p, o); err != nil {
		return nil, err
	}
	W := o.HaloWidth
	d := grid.NewDecomp(p.N, o.Tasks)
	for r := 0; r < o.Tasks; r++ {
		s := d.Sub(r).Size
		if s.X < W || s.Y < W || s.Z < W {
			return nil, fmt.Errorf("impl: halo width %d exceeds rank %d subdomain %v", W, r, s)
		}
	}
	w := mpi.NewWorld(o.Tasks)

	var (
		mu      sync.Mutex
		final   *grid.Field
		elapsed time.Duration
		mass0   float64
		msgs    float64
		values  float64
	)
	runErr := safeWorldRun(w, func(c *mpi.Comm) {
		sub := d.Sub(c.Rank())
		team := par.NewTeam(o.Threads)
		defer team.Close()
		cur := grid.NewField(sub.Size, W)
		m0 := initField(c, team, cur, p, o, sub)
		nxt := grid.NewField(sub.Size, W)
		op := opFor(p, cur)
		ex := newExchanger(c, d, cur)
		ex.setObs(o.Rec)
		team.SetRecorder(o.Rec, c.Rank())
		rank := c.Rank()

		// extended returns the subdomain grown by e points on every side.
		extended := func(e int) grid.Subdomain {
			return grid.Subdomain{
				Lo:   grid.Dims{X: -e, Y: -e, Z: -e},
				Size: grid.Dims{X: sub.Size.X + 2*e, Y: sub.Size.Y + 2*e, Z: sub.Size.Z + 2*e},
			}
		}

		c.Barrier()
		t0 := time.Now()
		for done := 0; done < p.Steps; {
			checkCancelRank(o)
			// One wide exchange covers the next burst of inner steps.
			burst := W
			if p.Steps-done < burst {
				burst = p.Steps - done
			}
			ex.setStep(done)
			ex.exchangeAll()
			for k := 0; k < burst; k++ {
				region := extended(W - 1 - k)
				if burst < W {
					// A short final burst still only needs validity to
					// shrink to the interior on its last step.
					region = extended(burst - 1 - k)
				}
				rows := stencil.Rows(region)
				sp := o.Rec.Begin(rank, done, obs.PhaseInterior, "extended")
				team.ParallelFor(rows, par.Static, 0, func(lo, hi int) {
					op.ApplyRows(cur, nxt, region, lo, hi)
				})
				sp.End()
				// Beyond region the swapped-in storage is stale; the next
				// inner step reads only region, the next burst's exchange
				// rewrites the whole halo.
				commitStep(o.Rec, rank, done, cur, nxt)
				done++
			}
		}
		c.Barrier()
		dt := time.Since(t0)

		g := gather(c, d, cur)
		st := c.Stats()
		mu.Lock()
		msgs += float64(st.SentMessages)
		values += float64(st.SentValues)
		if c.Rank() == 0 {
			final, elapsed, mass0 = g, dt, m0
		}
		mu.Unlock()
	})
	if runErr != nil {
		return nil, cancelOr(o, runErr)
	}

	res := &core.Result{Kind: core.WideHaloExt, Final: final, Stats: map[string]float64{
		"tasks":        float64(o.Tasks),
		"threads":      float64(o.Threads),
		"halo.width":   float64(W),
		"mpi.messages": msgs,
		"mpi.values":   values,
	}}
	finishResult(res, p, o, elapsed, mass0)
	return res, nil
}
