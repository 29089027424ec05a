// Package par is the shared-memory parallel runtime the reproduction uses
// in place of OpenMP. It provides persistent thread teams, parallel-for
// loops with static and guided schedules (the paper's §IV-D uses
// schedule(guided)) over an iteration space a caller may collapse itself,
// as the paper's collapse(2) does (§IV-A), and §IV-D's region whose master
// thread runs its own work (!$omp master) before joining the loop. A region
// ends with the implicit barrier of an OpenMP parallel region.
//
// A team of one runs its regions on the calling goroutine, as OpenMP does
// with one thread; a larger team wakes every worker once per region. A
// region allocates nothing: the team keeps one region descriptor (the
// schedule, the bounds, the caller's body and the guided scheduler) and
// refills it, so a caller that passes the same body each time pays only the
// wake-ups.
package par

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Schedule selects how ParallelFor distributes iterations among workers,
// mirroring OpenMP's schedule clause.
type Schedule int

const (
	// Static divides the iteration space into one contiguous chunk per
	// worker, assigned up front.
	Static Schedule = iota
	// Guided hands out chunks proportional to the remaining work divided
	// by the number of workers, shrinking toward the chunk floor — the
	// schedule the paper uses so the master thread can join computation
	// late after finishing MPI communication (§IV-D).
	Guided
)

func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Guided:
		return "guided"
	}
	return fmt.Sprintf("Schedule(%d)", int(s))
}

// Team is a persistent group of worker goroutines, the analog of an OpenMP
// thread team. A Team is created once and reused across many parallel
// regions so per-region cost is a wakeup, not goroutine creation.
type Team struct {
	n      int
	wake   []chan struct{} // one per worker, closed by Close; none for a team of one
	wg     sync.WaitGroup  // per-region completion
	closed bool
	mu     sync.Mutex
	failed atomic.Pointer[any] // first panic of the region under way
	reg    region              // the region under way, written only between regions

	// Span recording (see SetRecorder).
	rec  *obs.Recorder
	rank int
}

// region is what every worker's share of the region under way runs: fn for
// Run, otherwise the loop over [0, n) with worker 0 running master first.
type region struct {
	fn     func(tid int)
	master func()
	n      int
	sched  Schedule
	body   func(lo, hi int)
	guided scheduler
}

// SetRecorder attaches a span recorder: every parallel region (Run,
// ParallelFor, RunWithMaster) records a par.region span tagged
// with rank. A nil recorder (the default) disables recording.
func (t *Team) SetRecorder(r *obs.Recorder, rank int) {
	t.rec, t.rank = r, rank
}

// NewTeam starts a team of n workers. n must be at least 1. Worker 0 is the
// master thread. A team of one starts no goroutine: its worker 0 is the
// goroutine that launches each region.
func NewTeam(n int) *Team {
	if n < 1 {
		panic(fmt.Sprintf("par: team size %d < 1", n))
	}
	t := &Team{n: n}
	if n > 1 {
		t.wake = make([]chan struct{}, n)
		for i := range t.wake {
			t.wake[i] = make(chan struct{})
			go t.worker(i)
		}
	}
	return t
}

func (t *Team) worker(tid int) {
	for range t.wake[tid] {
		t.call(tid)
		t.wg.Done()
	}
}

// call runs one worker's share of the region under way. A panic in it is
// kept for launch to raise on the goroutine that launched the region: a
// worker is not a goroutine anyone can recover on, so a panic left to unwind
// it would end the process — and the master's share of an overlap region is
// an MPI exchange, which panics by design when a peer rank has failed.
func (t *Team) call(tid int) {
	defer func() {
		if p := recover(); p != nil {
			first := p // p itself must not escape: it would cost every call an allocation
			t.failed.CompareAndSwap(nil, &first)
		}
	}()
	g := &t.reg
	if g.fn != nil {
		g.fn(tid)
		return
	}
	if tid == 0 && g.master != nil {
		g.master()
	}
	if g.sched == Static {
		if lo, hi := StaticChunk(g.n, t.n, tid); lo < hi {
			g.body(lo, hi)
		}
		return
	}
	for {
		lo, hi, ok := g.guided.next()
		if !ok {
			return
		}
		g.body(lo, hi)
	}
}

// launch runs the region t.reg describes on every worker and returns when
// all have finished, then raises the first panic of any share.
func (t *Team) launch(label string) {
	a := t.rec.Begin(t.rank, -1, obs.PhaseRegion, label)
	if t.n == 1 {
		t.call(0)
	} else {
		t.wg.Add(t.n)
		for _, w := range t.wake {
			w <- struct{}{}
		}
		t.wg.Wait()
	}
	a.End()
	// Keep nothing of the caller's alive past its region.
	t.reg.fn, t.reg.master, t.reg.body = nil, nil, nil
	if p := t.failed.Swap(nil); p != nil {
		panic(*p)
	}
}

// Size returns the number of workers in the team.
func (t *Team) Size() int { return t.n }

// Close stops the workers. The team must be idle.
func (t *Team) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		for _, w := range t.wake {
			close(w)
		}
	}
}

// Run executes fn(tid) on every worker concurrently and returns when all
// have finished — one OpenMP parallel region. If fn panics on a worker, Run
// panics with the first such value once every worker has finished.
func (t *Team) Run(fn func(tid int)) {
	t.reg.fn = fn
	t.launch("region")
}

// ParallelFor executes body over the iteration range [0, n) split among the
// team per sched. body receives half-open chunk bounds [lo, hi). chunk is
// the guided chunk floor; 0 selects a default.
func (t *Team) ParallelFor(n int, sched Schedule, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if sched != Static && sched != Guided {
		panic(fmt.Sprintf("par: bad schedule %v", sched))
	}
	t.reg.n, t.reg.sched, t.reg.body = n, sched, body
	t.reg.guided.reset(n, t.n, chunk)
	t.launch(sched.String())
}

// RunWithMaster emulates the paper's §IV-D overlap region: every worker
// except the master immediately begins drawing guided chunks of the [0, n)
// iteration space, while the master first executes masterWork (the MPI
// communication) and then joins the loop. The region ends, like the OpenMP
// original, with an implicit barrier after the loop, so masterWork is
// complete when RunWithMaster returns.
func (t *Team) RunWithMaster(masterWork func(), n int, chunk int, body func(lo, hi int)) {
	t.reg.master, t.reg.n, t.reg.sched, t.reg.body = masterWork, n, Guided, body
	t.reg.guided.reset(n, t.n, chunk)
	t.launch("master+guided")
}

// StaticChunk returns the half-open bounds of worker tid's share of [0, n)
// under a static schedule: contiguous chunks as equal as possible, with the
// remainder going to the lowest-numbered workers.
func StaticChunk(n, workers, tid int) (lo, hi int) {
	base := n / workers
	rem := n % workers
	if tid < rem {
		lo = tid * (base + 1)
		return lo, lo + base + 1
	}
	lo = rem*(base+1) + (tid-rem)*base
	return lo, lo + base
}

// scheduler hands out the chunks of [0, n) for the guided schedule.
type scheduler struct {
	n       int64
	workers int64
	floor   int64
	next64  atomic.Int64
}

// reset starts the chunks of a new region over [0, n).
func (s *scheduler) reset(n, workers int, chunk int) {
	if chunk <= 0 {
		chunk = 1
	}
	s.n, s.workers, s.floor = int64(n), int64(workers), int64(chunk)
	s.next64.Store(0)
}

func (s *scheduler) next() (lo, hi int, ok bool) {
	for {
		cur := s.next64.Load()
		if cur >= s.n {
			return 0, 0, false
		}
		size := (s.n - cur) / s.workers
		if size < s.floor {
			size = s.floor
		}
		end := cur + size
		if end > s.n {
			end = s.n
		}
		if s.next64.CompareAndSwap(cur, end) {
			return int(cur), int(end), true
		}
	}
}
