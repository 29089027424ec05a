// Package par is the shared-memory parallel runtime the reproduction uses
// in place of OpenMP. It provides persistent thread teams, parallel-for
// loops with static, dynamic, and guided schedules (the paper's §IV-D uses
// schedule(guided)), a collapse(2) helper matching the paper's loop
// structure (§IV-A), master-thread sections (!$omp master), and a reusable
// barrier.
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
	n       int
	jobs    []chan func(tid int)
	done    chan struct{}
	wg      sync.WaitGroup // per-region completion
	closed  bool
	barrier *Barrier
	mu      sync.Mutex
	failed  atomic.Pointer[any] // first panic of the region under way

	// Span recording (see SetRecorder). label is only touched by the
	// goroutine launching regions, per the Team usage contract.
	rec   *obs.Recorder
	rank  int
	label string
}

// SetRecorder attaches a span recorder: every parallel region (Run,
// ParallelFor, RunWithMaster) records a par.region span tagged
// with rank. A nil recorder (the default) disables recording.
func (t *Team) SetRecorder(r *obs.Recorder, rank int) {
	t.rec, t.rank = r, rank
}

// NewTeam starts a team of n workers. n must be at least 1. Worker 0 is the
// master thread.
func NewTeam(n int) *Team {
	if n < 1 {
		panic(fmt.Sprintf("par: team size %d < 1", n))
	}
	t := &Team{
		n:       n,
		jobs:    make([]chan func(int), n),
		done:    make(chan struct{}),
		barrier: NewBarrier(n),
	}
	for i := 0; i < n; i++ {
		t.jobs[i] = make(chan func(int))
		go t.worker(i)
	}
	return t
}

func (t *Team) worker(tid int) {
	for {
		select {
		case fn := <-t.jobs[tid]:
			t.call(fn, tid)
		case <-t.done:
			return
		}
	}
}

// call runs one worker's share of a region. A panic in it is kept for Run
// to raise on the goroutine that launched the region: a worker is not a
// goroutine anyone can recover on, so a panic left to unwind it would end
// the process — and the master's share of an overlap region is an MPI
// exchange, which panics by design when a peer rank has failed.
func (t *Team) call(fn func(tid int), tid int) {
	defer t.wg.Done()
	defer func() {
		if p := recover(); p != nil {
			first := p // p itself must not escape: it would cost every call an allocation
			t.failed.CompareAndSwap(nil, &first)
		}
	}()
	fn(tid)
}

// Size returns the number of workers in the team.
func (t *Team) Size() int { return t.n }

// Close stops the workers. The team must be idle.
func (t *Team) Close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.closed {
		t.closed = true
		close(t.done)
	}
}

// Run executes fn(tid) on every worker concurrently and returns when all
// have finished — one OpenMP parallel region. fn may call t.Barrier() to
// synchronize within the region. If fn panics on a worker, Run panics with
// the first such value once every worker has finished.
func (t *Team) Run(fn func(tid int)) {
	label := t.label
	if label == "" {
		label = "region"
	}
	a := t.rec.Begin(t.rank, -1, obs.PhaseRegion, label)
	t.wg.Add(t.n)
	for i := 0; i < t.n; i++ {
		t.jobs[i] <- fn
	}
	t.wg.Wait()
	a.End()
	if p := t.failed.Swap(nil); p != nil {
		panic(*p)
	}
}

// Barrier blocks until every worker of the enclosing Run region has reached
// it. Calling it outside a Run region (or from only some workers) deadlocks,
// exactly like a misplaced OpenMP barrier.
func (t *Team) Barrier() { t.barrier.Wait() }

// ParallelFor executes body over the iteration range [0, n) split among the
// team per sched. body receives half-open chunk bounds [lo, hi). chunk is
// the guided chunk floor; 0 selects a default.
func (t *Team) ParallelFor(n int, sched Schedule, chunk int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	t.label = sched.String()
	defer func() { t.label = "" }()
	switch sched {
	case Static:
		t.Run(func(tid int) {
			lo, hi := StaticChunk(n, t.n, tid)
			if lo < hi {
				body(lo, hi)
			}
		})
	case Guided:
		s := newScheduler(n, t.n, chunk)
		t.Run(func(tid int) {
			for {
				lo, hi, ok := s.next()
				if !ok {
					return
				}
				body(lo, hi)
			}
		})
	default:
		panic(fmt.Sprintf("par: bad schedule %v", sched))
	}
}

// RunWithMaster emulates the paper's §IV-D overlap region: every worker
// except the master immediately begins drawing guided chunks of the [0, n)
// iteration space, while the master first executes masterWork (the MPI
// communication) and then joins the loop. The region ends, like the OpenMP
// original, with an implicit barrier after the loop, so masterWork is
// complete when RunWithMaster returns.
func (t *Team) RunWithMaster(masterWork func(), n int, chunk int, body func(lo, hi int)) {
	t.label = "master+guided"
	defer func() { t.label = "" }()
	s := newScheduler(n, t.n, chunk)
	t.Run(func(tid int) {
		if tid == 0 {
			masterWork()
		}
		for {
			lo, hi, ok := s.next()
			if !ok {
				return
			}
			body(lo, hi)
		}
	})
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

func newScheduler(n, workers int, chunk int) *scheduler {
	if chunk <= 0 {
		chunk = 1
	}
	return &scheduler{n: int64(n), workers: int64(workers), floor: int64(chunk)}
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

// Barrier is a reusable counting barrier for a fixed number of parties.
type Barrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	gen     uint64
}

// NewBarrier returns a barrier for the given number of parties.
func NewBarrier(parties int) *Barrier {
	if parties < 1 {
		panic("par: barrier parties < 1")
	}
	b := &Barrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Wait blocks until all parties have called Wait, then releases them and
// resets for reuse.
func (b *Barrier) Wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
		b.mu.Unlock()
		return
	}
	for gen == b.gen {
		b.cond.Wait()
	}
	b.mu.Unlock()
}
