package impl

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/par"
	"repro/internal/stencil"
)

// rank is one task's state, built by the scaffold from what the schedule
// declares and handed to its step. A field a schedule did not ask for is
// nil.
type rank struct {
	p   core.Problem
	o   core.Options
	id  int            // the rank in the world, which spans are attributed to
	sub grid.Subdomain // this rank's box of the global grid

	whole grid.Subdomain // the local domain

	cur  *grid.Field // host state over the subdomain, halos included
	nxt  *grid.Field // cpu: the state the step computes into
	op   *stencil.Op // cpu: Eq. 2 over cur's shape
	team *par.Team   // the task's threads: one for the device-only kinds
	solo *par.Team   // a team of one for regions under minParallelPoints: team itself at one thread
	ex   *exchanger  // multi-task kinds: the halo exchange of cur

	// What the team runs, bound once so that a step allocates nothing: rows
	// computes the region setRegion last described, the rows of parts laid
	// end to end (ends[i] is the region row after parts[i]'s last).
	parts []grid.Subdomain
	ends  []int
	rows  func(lo, hi int)

	dev     *gpusim.Device
	box     grid.Subdomain // the device-resident part of the local domain
	st      *devState
	streams []*gpusim.Stream
	bufs    []*gpusim.Buffer // every device allocation, freed when the rank ends
	host    gpusim.HostClock // this task's virtual time across device calls

	step int // the time step under way, for span attribution
	geom any // what the schedule's prepare keeps across steps
}

// rankOut is what a rank leaves behind for the result.
type rankOut struct {
	final   *grid.Field // rank 0: the gathered global state
	elapsed time.Duration
	sim     float64    // simulated seconds of the step loop (device kinds)
	norms   grid.Norms // verified runs: the global error norms
	drift   float64    // verified runs: |final mass − initial mass|
	comm    mpi.Stats
}

// Run is the scaffold every schedule runs through: normalise, validate
// before any goroutine starts, decompose, start a world of o.Tasks ranks
// (one for §IV-A and §IV-E), build each rank's state, time the step loop
// the way the paper does, verify on every rank, gather on rank 0 unless
// the caller skips it, and report one stats vocabulary.
func (sch schedule) Run(p core.Problem, o core.Options) (*core.Result, error) {
	p, err := p.Normalize()
	if err != nil {
		return nil, err
	}
	o = o.Normalize()
	single := !sch.kind.UsesMPI()
	if single {
		// §IV-A is a single task by definition and ignores a task count;
		// §IV-E refuses one, as a caller asking for tasks wants §IV-F.
		if sch.device != noDevice && o.Tasks != 1 {
			return nil, fmt.Errorf("impl: GPU-resident implementation is single task, got %d", o.Tasks)
		}
		o.Tasks = 1
	}
	d, err := sch.check(p, o)
	if err != nil {
		return nil, err
	}
	halo := 1
	if sch.wide {
		halo = o.HaloWidth
	}
	var pool []*gpusim.Device
	if sch.device != noDevice {
		pool = devicePool(o)
	}

	outs := make([]rankOut, o.Tasks)
	runErr := safeWorldRun(mpi.NewWorld(o.Tasks), func(c *mpi.Comm) {
		r := &rank{p: p, o: o, id: c.Rank(), sub: d.Sub(c.Rank())}
		n := r.sub.Size
		r.whole = stencil.Whole(n)
		threads := 1 // the device-only kinds' host loops run on the rank's goroutine
		if sch.cpu {
			threads = o.Threads
		}
		r.setTeams(threads)
		defer r.team.Close()
		r.cur = grid.NewField(n, halo)
		mass0 := initField(c, r.team, r.cur, p, o, r.sub)
		if sch.cpu {
			r.nxt = grid.NewField(n, halo)
			r.op = stencil.NewOp(stencil.TableI(p.C, p.Nu), r.cur)
			r.rows = r.applyRows
		}
		if !single {
			r.ex = newExchanger(c, d, r.cur)
			r.ex.setObs(o.Rec)
		}
		if sch.device != noDevice {
			defer r.freeDevice()
			r.attachDevice(sch, pool[r.id/tasksPerGPU(o)])
		}
		if sch.prepare != nil {
			sch.prepare(r)
		}

		// "We perform a barrier immediately before measuring the start
		// time and the end time", and "the CPU and GPU synchronize
		// immediately before timer calls": the initial upload and the
		// final download are outside the timing, as in the paper.
		c.Barrier()
		r.sync(r.streams...)
		simStart, t0 := r.host.Now(), time.Now()
		for s := 0; s < p.Steps; s++ {
			checkCancelRank(o)
			r.setStep(s)
			sch.step(r, s)
		}
		c.Barrier()
		r.sync(r.streams...)
		out := &outs[r.id]
		out.elapsed, out.sim = time.Since(t0), (r.host.Now() - simStart).Seconds()

		if sch.device != noDevice {
			r.download()
		}
		if o.Verify {
			var mass float64
			out.norms, mass = verify(c, r.team, p, r.sub, r.cur)
			out.drift = math.Abs(mass - mass0)
		}
		if !o.SkipGather {
			out.final = gather(c, d, r.cur)
		}
		out.comm = c.Stats()
	})
	if runErr != nil {
		return nil, cancelOr(o, runErr)
	}

	res := &core.Result{Kind: sch.kind, Final: outs[0].final, Elapsed: outs[0].elapsed,
		Norms: outs[0].norms, MassDrift: outs[0].drift, Stats: map[string]float64{
			"tasks":   float64(o.Tasks),
			"threads": float64(o.Threads),
		}}
	if s := res.Elapsed.Seconds(); s > 0 {
		res.GF = p.Flops() * float64(p.Steps) / s / 1e9
	}
	st := res.Stats
	if !single {
		var msgs, values float64
		for _, out := range outs {
			msgs += float64(out.comm.SentMessages)
			values += float64(out.comm.SentValues)
		}
		st["mpi.messages"], st["mpi.values"], st["mpi.bytes"] = msgs, values, values*8
		st["mpi.msgs/step"] = msgs / float64(max(1, p.Steps))
	}
	if sch.device != noDevice {
		var kernels, pcie, simSec float64
		for _, dev := range pool {
			kernels += float64(dev.Kernels)
			pcie += float64(dev.BytesH2D + dev.BytesD2H)
		}
		for _, out := range outs {
			simSec = max(simSec, out.sim) // the slowest rank bounds the simulated time
		}
		st["blockx"], st["blocky"] = float64(o.BlockX), float64(o.BlockY)
		st["gpu.kernels"], st["pcie.bytes"], st["sim.seconds"] = kernels, pcie, simSec
		if simSec > 0 {
			st["sim.gf"] = p.Flops() * float64(p.Steps) / simSec / 1e9
		}
	}
	if sch.wide {
		st["halo.width"] = float64(o.HaloWidth)
	}
	if sch.device == innerBlock {
		st["thickness"] = float64(o.BoxThickness)
	}
	return res, nil
}

// check validates the options against the problem for every rank — task
// count, halo width, box split, block size — and returns the decomposition.
// It runs before the world exists, so a bad option is a plain error and no
// goroutine ever starts.
func (sch schedule) check(p core.Problem, o core.Options) (grid.Decomp, error) {
	if o.Tasks > min(p.N.X, p.N.Y, p.N.Z) {
		return grid.Decomp{}, fmt.Errorf("impl: %d tasks too many for grid %v (subdomains thinner than the stencil)", o.Tasks, p.N)
	}
	d, err := grid.Decompose(p.N, o.Tasks)
	if err != nil {
		return d, fmt.Errorf("impl: %w", err)
	}
	for r := 0; r < o.Tasks; r++ {
		n := d.Sub(r).Size
		if w := o.HaloWidth; sch.wide && (n.X < w || n.Y < w || n.Z < w) {
			return d, fmt.Errorf("impl: halo width %d exceeds rank %d subdomain %v", w, r, n)
		}
		if sch.device == innerBlock {
			// Every rank must be able to carve a GPU block out of its subdomain.
			box, err := grid.NewBoxSplit(n, o.BoxThickness)
			if err != nil {
				return d, fmt.Errorf("impl: rank %d: %w", r, err)
			}
			n = box.Inner().Size
		}
		if sch.device != noDevice {
			if err := gpusim.StencilLaunch(n.X, n.Y, n.Z, o.BlockX, o.BlockY).Validate(deviceProps(o)); err != nil {
				return d, fmt.Errorf("impl: block %dx%d invalid: %w", o.BlockX, o.BlockY, err)
			}
		}
	}
	return d, nil
}

// span opens a wall-clock span of the step under way, attributed to this
// rank (no-op when the run carries no recorder).
func (r *rank) span(ph obs.Phase, label string) obs.Active {
	return r.o.Rec.Begin(r.id, r.step, ph, label)
}

// setStep tags the spans of step s: the rank's own, the exchanger's
// pack/unpack/exchange windows and the communicator's mpi.* spans.
func (r *rank) setStep(s int) {
	r.step = s
	if r.ex != nil {
		r.ex.setStep(s)
	}
}

// minParallelPoints is the smallest region a team of more than one thread
// computes. A region with fewer points runs as OpenMP's parallel for
// if(false) does: on a team of one, on the rank's own goroutine, with no
// worker woken. Below it, waking the team and waiting for it costs more than
// the second thread saves (EXPERIMENTS.md, "When a region pays for its
// team": one thread wins up to about 26³, two from 32³ on).
const minParallelPoints = 1 << 14

// setTeams starts the rank's team of threads and, when that is more than
// one, the team of one a region under minParallelPoints runs on, which
// starts no goroutine.
func (r *rank) setTeams(threads int) {
	r.team = par.NewTeam(threads)
	r.team.SetRecorder(r.o.Rec, r.id)
	r.solo = r.team
	if threads > 1 {
		r.solo = par.NewTeam(1)
		r.solo.SetRecorder(r.o.Rec, r.id)
	}
}

// compute applies Eq. 2 from cur into nxt over the non-empty subs under one
// span, in one parallel region over their collapsed (k, j) rows laid end to
// end — the paper's collapse(2) with a static schedule. A region of fewer
// than minParallelPoints points runs on the team of one (see regionTeam);
// either way a point's value does not depend on which thread computes its
// row.
func (r *rank) compute(ph obs.Phase, label string, subs ...grid.Subdomain) {
	sp := r.span(ph, label)
	rows, points := r.setRegion(subs...)
	r.regionTeam(points).ParallelFor(rows, par.Static, 0, r.rows)
	sp.End()
}

// regionTeam returns the team a region of points points runs on: the
// rank's team, or its team of one below minParallelPoints. This is the third
// departure from the paper's codes (after commit's swap and stepSingle's
// unthreaded periodic copy), which thread every region; internal/perf still
// charges the threaded region.
func (r *rank) regionTeam(points int) *par.Team {
	if points < minParallelPoints {
		return r.solo
	}
	return r.team
}

// setRegion makes the non-empty subs the region r.rows computes and returns
// its row and point counts.
func (r *rank) setRegion(subs ...grid.Subdomain) (rows, points int) {
	r.parts, r.ends = r.parts[:0], r.ends[:0]
	for _, sub := range subs {
		if !sub.Empty() {
			rows += stencil.Rows(sub)
			points += sub.Size.Volume()
			r.parts, r.ends = append(r.parts, sub), append(r.ends, rows)
		}
	}
	return rows, points
}

// appendOnce appends to region each of subs it does not hold yet. A
// subdomain one point thick in a dimension has one slab for both of that
// dimension's walls. It is kept once: compute hands every row of a region to
// one thread, and two must not write one point.
func appendOnce(region []grid.Subdomain, subs ...grid.Subdomain) []grid.Subdomain {
	for _, s := range subs {
		if !slices.Contains(region, s) {
			region = append(region, s)
		}
	}
	return region
}

// applyRows computes rows [lo, hi) of the region setRegion described: of
// each part, the rows the range covers.
func (r *rank) applyRows(lo, hi int) {
	start := 0
	for i, sub := range r.parts {
		if end := r.ends[i]; lo < end && start < hi {
			r.op.ApplyRows(r.cur, r.nxt, sub, max(lo, start)-start, min(hi, end)-start)
		}
		start = r.ends[i]
	}
}

// commit ends a time step on the host: the new state becomes the current
// state. This is a deliberate departure from the paper's codes (the others
// are §IV-A's unthreaded periodic copy, see stepSingle, and a small region's
// team of one, see regionTeam), which copy the new state over the current
// one with a third threaded sweep;
// swapping the two fields' storage costs nothing and changes no value,
// because every point the next step reads it first rewrites: a halo point by
// its periodic copy or exchange, an owned point by this step's computation —
// in §IV-H/I, whose host fields hold only the CPU's walls, also the GPU
// block's outer layer, which each step lands. The span that marked the copy
// stays, labelled "swap", as the step-commit marker of the traces.
// internal/perf still charges the copy: it models the paper's codes.
func (r *rank) commit() {
	sp := r.span(obs.PhaseCopy, "swap")
	r.cur.Swap(r.nxt)
	sp.End()
}

// initField is the start of every Run: it fills f, a rank's local field
// over the box sub of the global grid, with the initial state — the rows of
// a checkpointed field, or the Gaussian wave through its per-axis tables —
// threaded over the team. Only a verified run reads the initial mass, so
// only then is it computed, as the Allreduce of the ranks' own sums — the
// sums verify takes of the final state; no run builds a global-sized
// temporary.
func initField(c *mpi.Comm, team *par.Team, f *grid.Field, p core.Problem, o core.Options, sub grid.Subdomain) (mass0 float64) {
	if p.Initial != nil {
		f.CopyBox(grid.Dims{}, p.Initial, sub)
	} else {
		tab := p.Wave.Table(p.N, p.C, 0, sub)
		team.ParallelFor(tab.Rows(), par.Static, 0, func(lo, hi int) { tab.Fill(f, lo, hi) })
	}
	if !o.Verify {
		return 0
	}
	mass := []float64{f.InteriorSum()}
	c.Allreduce(mpi.OpSum, mass)
	return mass[0]
}

// tagGather is the tag of the gather's messages, past the exchanger's.
const tagGather = 6

// gather assembles the global field on rank 0 from each rank's local
// interior; other ranks return nil. A rank other than 0 packs its interior
// straight into the slot of rank 0's mailbox its one-shot send borrows, and
// sends it as it is. Rank 0 allocates the global field and copies its own
// box while they pack, then unpacks each delivered slot in place. A world of
// one rank has nothing to assemble: its local field is the global one.
func gather(c *mpi.Comm, d grid.Decomp, local *grid.Field) *grid.Field {
	if c.Size() == 1 {
		return local
	}
	if c.Rank() != 0 {
		send := c.SendInit(0, tagGather, local.N.Volume())
		grid.NewFieldOn(local.N, 0, send.Wait()).CopyInteriorFrom(local)
		send.Start()
		return nil
	}
	global := grid.NewField(d.N, 1)
	global.CopyBox(d.Sub(0).Lo, local, stencil.Whole(local.N))
	for r := 1; r < c.Size(); r++ {
		sub := d.Sub(r)
		recv := c.RecvInit(r, tagGather, sub.Size.Volume())
		recv.Start()
		global.CopyBox(sub.Lo, grid.NewFieldOn(sub.Size, 0, recv.Wait()), stencil.Whole(sub.Size))
	}
	return global
}

// verify is §IV-A's verification, run on the ranks that own the data:
// each rank reduces its own subdomain in one pass split over the team — Σd²
// and max|d| of d = state − exact solution — and sums its mass, and one
// Allreduce of the sums and one of the maxima combine the ranks' shares.
// Every rank returns the global norms and final mass.
func verify(c *mpi.Comm, team *par.Team, p core.Problem, sub grid.Subdomain, local *grid.Field) (grid.Norms, float64) {
	tab := p.Wave.Table(p.N, p.C, p.T0+p.Nu*float64(p.Steps), sub)
	sums := make([]float64, team.Size())
	maxs := make([]float64, team.Size())
	team.Run(func(tid int) {
		lo, hi := par.StaticChunk(tab.Rows(), team.Size(), tid)
		sums[tid], maxs[tid] = tab.DiffSums(local, lo, hi)
	})
	sum, maxAbs := []float64{0, local.InteriorSum()}, []float64{0}
	for tid := range sums {
		sum[0] += sums[tid]
		maxAbs[0] = math.Max(maxAbs[0], maxs[tid])
	}
	c.Allreduce(mpi.OpSum, sum)
	c.Allreduce(mpi.OpMax, maxAbs)
	return grid.Norms{L2: math.Sqrt(sum[0] / float64(p.N.Volume())), LInf: maxAbs[0]}, sum[1]
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
