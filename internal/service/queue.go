package service

import "sync"

// Queue is the bounded admission queue between the HTTP handlers and the
// worker pool. Admission never blocks: TryPush either enqueues or reports
// the queue full, and the handler turns a full queue into 429 with a
// Retry-After estimate — explicit backpressure instead of unbounded
// buffering.
//
// The queue has two lanes. The job lane carries submissions. The segment
// lane is an unbuffered hand-off: a session segment is never shed, so its
// sender waits there until a worker takes it (or its context ends). Between a waiting job and a waiting segment a free
// worker has no fixed priority — select picks at random, so neither starves —
// and because a session offers its next segment only after the last one's
// checkpoint is durable, one session delays a waiting job by at most one
// segment.
type Queue struct {
	mu     sync.Mutex
	ch     chan *Job
	seg    chan *Job
	closed bool
}

// NewQueue builds a queue holding at most capacity jobs.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{ch: make(chan *Job, capacity), seg: make(chan *Job)}
}

// TryPush enqueues the job on the job lane, or reports false when the lane
// is full or the queue is closed for draining.
func (q *Queue) TryPush(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return false
	}
	select {
	case q.ch <- j:
		return true
	default:
		return false
	}
}

// Pop blocks for the next unit of work: a job or a segment, whichever is
// ready. It reports false once the queue is closed and the job lane has
// drained (the sessions are stopped before the queue closes, so no segment
// is waiting).
func (q *Queue) Pop() (*Job, bool) {
	select {
	case j, ok := <-q.ch:
		return j, ok
	case j := <-q.seg:
		return j, true
	}
}

// Close stops admission. Jobs already queued remain receivable; the lane
// closes once Pop drains them.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
	}
}

// Depth returns the number of queued jobs.
func (q *Queue) Depth() int { return len(q.ch) }

// Cap returns the queue capacity.
func (q *Queue) Cap() int { return cap(q.ch) }
