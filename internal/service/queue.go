package service

import "sync"

// Queue is the bounded admission queue between the HTTP handlers and the
// worker pool. Admission never blocks: TryPush either enqueues or reports
// the queue full, and the handler turns a full queue into 429 with a
// Retry-After estimate — explicit backpressure instead of unbounded
// buffering.
//
// The queue has three lanes. The foreground lane carries interactive
// submissions. The segment lane is an unbuffered hand-off: a session
// segment is never shed, so its sender waits there until a worker takes it
// (or its context ends). Between a waiting job and a waiting segment a free
// worker has no fixed priority — select picks at random, so neither starves —
// and because a session offers its next segment only after the last one's
// checkpoint is durable, one session delays a waiting job by at most one
// segment. The background lane carries speculative work (sweep-warmer
// pre-executions) that is only worth doing on otherwise-idle workers: Pop
// takes it only when the other two are empty, and background admission
// sheds itself the moment any foreground job is waiting — speculation never
// costs an interactive request its place in line.
type Queue struct {
	mu     sync.Mutex
	ch     chan *Job
	seg    chan *Job
	bg     chan *Job
	closed bool
}

// NewQueue builds a queue holding at most capacity jobs per lane.
func NewQueue(capacity int) *Queue {
	if capacity < 1 {
		capacity = 1
	}
	return &Queue{ch: make(chan *Job, capacity), seg: make(chan *Job), bg: make(chan *Job, capacity)}
}

// TryPush enqueues the job on the foreground lane, or reports false when
// the lane is full or the queue is closed for draining.
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

// TryPushBackground enqueues the job on the background lane. It reports
// false — shedding the job — when the queue is closed, any foreground job
// is waiting, or the lane is full.
func (q *Queue) TryPushBackground(j *Job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || len(q.ch) > 0 {
		return false
	}
	select {
	case q.bg <- j:
		return true
	default:
		return false
	}
}

// Pop blocks for the next unit of work: a foreground job or a segment,
// whichever is ready, and a background job only when neither is. It reports
// false once the queue is closed and the foreground lane has drained (the
// sessions are stopped before the queue closes, so no segment is waiting).
func (q *Queue) Pop() (*Job, bool) {
	select {
	case j, ok := <-q.ch:
		return j, ok
	case j := <-q.seg:
		return j, true
	default:
	}
	select {
	case j, ok := <-q.ch:
		return j, ok
	case j := <-q.seg:
		return j, true
	case j, ok := <-q.bg:
		if !ok {
			// Background lane closed: the queue is draining, so wait out
			// the remaining foreground jobs.
			j, ok = <-q.ch
		}
		return j, ok
	}
}

// Close stops admission on both lanes. Foreground jobs already queued
// remain receivable; the channels close once Pop drains them.
func (q *Queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed {
		q.closed = true
		close(q.ch)
		close(q.bg)
	}
}

// Depth returns the number of queued foreground jobs.
func (q *Queue) Depth() int { return len(q.ch) }

// Cap returns the per-lane queue capacity.
func (q *Queue) Cap() int { return cap(q.ch) }
