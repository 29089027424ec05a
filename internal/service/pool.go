package service

import (
	"sync"
	"sync/atomic"
)

// Pool is the execution stage: a fixed set of workers pulling jobs off the
// queue. Bounding the workers bounds the concurrent simulations (each of
// which may itself spawn an MPI world of goroutines), the same way the
// paper's implementations bound tasks × threads to the machine.
type Pool struct {
	workers int
	busy    atomic.Int64
	wg      sync.WaitGroup
}

// NewPool starts n workers executing jobs from q with exec. The pool stops
// when the queue closes and drains; Wait blocks until then.
func NewPool(n int, q *Queue, exec func(*Job)) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{workers: n}
	p.wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer p.wg.Done()
			for {
				j, ok := q.Pop()
				if !ok {
					return
				}
				p.busy.Add(1)
				exec(j)
				p.busy.Add(-1)
			}
		}()
	}
	return p
}

// Busy returns the number of workers currently executing a job.
func (p *Pool) Busy() int { return int(p.busy.Load()) }

// Workers returns the pool size.
func (p *Pool) Workers() int { return p.workers }

// Wait blocks until every worker has exited (queue closed and drained).
func (p *Pool) Wait() { p.wg.Wait() }
