// Package mpi is an in-process message-passing runtime with MPI semantics,
// standing in for the Cray MPT / OpenMPI libraries of the paper. Ranks run
// as goroutines inside one World; point-to-point messages are matched on
// (source, tag) with MPI's non-overtaking order; nonblocking operations
// return Requests completed by Wait; and the usual collectives (Barrier,
// Allreduce, Gather) are built from the point-to-point layer with a binomial
// tree, as a real MPI would build them.
//
// Sends are buffered (eager): Send copies the payload and returns
// immediately, so the communication patterns of the paper — which post
// receives before sends precisely to be safe under rendezvous protocols —
// are deadlock-free here too. The copy goes into a payload slot the
// receiving rank's mailbox recycles: a receive hands its slot back once it
// has copied it out, so a steady exchange allocates nothing.
//
// A receive can be persistent, as MPI_Recv_init makes one: RecvInit binds
// the source, tag and buffer once, and each Start and Wait after it is one
// receive, with nothing allocated per message.
//
// Functional correctness is this package's job; communication *cost* on the
// paper's machines is modeled separately by internal/perf.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// AnyTag matches any tag in Recv and RecvInit.
const AnyTag = -1

// AnySource matches any source rank in Recv and RecvInit.
const AnySource = -1

const collTagBase = 1 << 30 // internal tag space for collectives

// World owns the mailboxes of a fixed set of ranks.
type World struct {
	size   int
	boxes  []*mailbox
	barier *centralBarrier
}

// NewWorld creates a world of size ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d < 1", size))
	}
	w := &World{size: size, boxes: make([]*mailbox, size), barier: newCentralBarrier(size)}
	for i := range w.boxes {
		w.boxes[i] = newMailbox()
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return w.size }

// Comm returns the communicator endpoint for rank. Each rank's Comm must be
// used by a single goroutine at a time.
func (w *World) Comm(rank int) *Comm {
	if rank < 0 || rank >= w.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, w.size))
	}
	return &Comm{world: w, rank: rank}
}

// Run executes fn concurrently on every rank and returns when all complete.
// A panic on any rank is re-panicked on the caller after all ranks have
// stopped or panicked, so tests fail loudly instead of deadlocking silently.
func (w *World) Run(fn func(c *Comm)) {
	var wg sync.WaitGroup
	panics := make(chan any, w.size)
	for r := 0; r < w.size; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panics <- fmt.Errorf("mpi: rank %d: %v", rank, p)
					w.barier.poison()
					for _, b := range w.boxes {
						b.poison()
					}
				}
			}()
			fn(w.Comm(rank))
		}(r)
	}
	wg.Wait()
	select {
	case p := <-panics:
		panic(p)
	default:
	}
}

// Comm is one rank's endpoint in a World.
type Comm struct {
	world   *World
	rank    int
	collSeq int
	stats   Stats
	rec     *obs.Recorder
	step    int
}

// Stats counts this rank's point-to-point traffic, excluding messages a
// rank sends to itself (which the paper's implementations shortcut in
// memory) but including collective-internal messages.
type Stats struct {
	SentMessages int
	SentValues   int
	RecvMessages int
	RecvValues   int
}

// Rank returns this endpoint's rank.
func (c *Comm) Rank() int { return c.rank }

// Size returns the world size.
func (c *Comm) Size() int { return c.world.size }

// Stats returns the traffic counters accumulated so far.
func (c *Comm) Stats() Stats { return c.stats }

// SetRecorder attaches a span recorder: Send, Recv, and Wait calls record
// mpi.* spans tagged with this rank and the step set by SetStep. A nil
// recorder (the default) disables recording. Like all Comm methods, it
// follows the one-goroutine-at-a-time contract.
func (c *Comm) SetRecorder(r *obs.Recorder) { c.rec = r }

// SetStep tags subsequently recorded spans with the given timestep.
// Use -1 (the initial value is 0) for traffic outside the step loop.
func (c *Comm) SetStep(step int) { c.step = step }

// Send delivers a copy of data to dst with the given tag and returns once
// the payload is buffered (eager protocol). Sending to self is legal.
func (c *Comm) Send(dst, tag int, data []float64) {
	c.checkTag(tag)
	c.send(dst, tag, data)
}

// send is the internal path shared with collectives, which use tags above
// the user tag space.
func (c *Comm) send(dst, tag int, data []float64) {
	c.checkRank(dst)
	a := c.rec.Begin(c.rank, c.step, obs.PhaseMPISend, "send")
	c.world.boxes[dst].put(c.rank, tag, data)
	a.End()
	if dst != c.rank {
		c.stats.SentMessages++
		c.stats.SentValues += len(data)
	}
}

// Recv blocks until a message matching (src, tag) arrives, copies it into
// buf, and returns the number of values received. src may be AnySource and
// tag may be AnyTag. It panics if buf is too small, as a real MPI would
// report MPI_ERR_TRUNCATE.
func (c *Comm) Recv(src, tag int, buf []float64) int {
	if src != AnySource {
		c.checkRank(src)
	}
	box := c.world.boxes[c.rank]
	a := c.rec.Begin(c.rank, c.step, obs.PhaseMPIRecv, "recv")
	e := box.get(src, tag)
	a.End()
	n := len(e.data)
	if n > len(buf) {
		box.recycle(e.data)
		panic(fmt.Sprintf("mpi: rank %d: truncation: %d values into %d buffer (src %d tag %d)",
			c.rank, n, len(buf), e.src, e.tag))
	}
	copy(buf, e.data)
	box.recycle(e.data)
	if e.src != c.rank {
		c.stats.RecvMessages++
		c.stats.RecvValues += n
	}
	return n
}

// Request is a handle to a nonblocking operation, completed by Wait. A
// receive request is persistent: RecvInit makes it inactive, Start posts it
// and Wait completes it, as often as the caller likes.
type Request struct {
	c        *Comm // nil for a send's request, which is always complete
	src, tag int
	buf      []float64
	active   bool
	count    int
}

// sent is the request of every send: under the eager protocol a send is
// complete when it returns.
var sent = &Request{}

// Wait blocks until the operation completes and returns the received value
// count (0 for sends). Wait is idempotent: on an inactive request it
// returns the count of the last receive.
func (r *Request) Wait() int {
	if r.active {
		a := r.c.rec.Begin(r.c.rank, r.c.step, obs.PhaseMPIWait, "irecv")
		r.count = r.c.Recv(r.src, r.tag, r.buf)
		a.End()
		r.active = false
	}
	return r.count
}

// Done reports whether the request is inactive: completed by Wait, or
// never started.
func (r *Request) Done() bool { return !r.active }

// Start posts a persistent receive made by RecvInit. The match is performed
// when Wait is called; the buffer must not be read before Wait returns. It
// panics on an active request, or on one RecvInit did not make.
func (r *Request) Start() {
	if r.c == nil || r.active {
		panic("mpi: Start needs an inactive request made by RecvInit")
	}
	r.active = true
}

// ISend starts a nonblocking send. Under the eager protocol the payload is
// buffered immediately, so the returned request is already complete and the
// caller may reuse data at once — matching the semantics (not the cost) of
// MPI_Isend on the paper's machines.
func (c *Comm) ISend(dst, tag int, data []float64) *Request {
	c.Send(dst, tag, data)
	return sent
}

// RecvInit makes a persistent receive of a message from src with tag into
// buf, as MPI_Recv_init does: an inactive request that each Start posts and
// each Wait completes. src may be AnySource and tag may be AnyTag.
func (c *Comm) RecvInit(src, tag int, buf []float64) *Request {
	if src != AnySource {
		c.checkRank(src)
	}
	c.checkTagOrAny(tag)
	return &Request{c: c, src: src, tag: tag, buf: buf}
}

// Barrier blocks until every rank in the world has entered it.
func (c *Comm) Barrier() {
	c.world.barier.wait()
}

// ReduceOp names an Allreduce combining operation.
type ReduceOp int

const (
	// OpSum sums elementwise.
	OpSum ReduceOp = iota
	// OpMax takes the elementwise maximum.
	OpMax
	// OpMin takes the elementwise minimum.
	OpMin
)

// Allreduce combines vals elementwise across all ranks with op and leaves
// the result in vals on every rank. It is implemented as a binomial-tree
// reduction to rank 0 followed by a binomial broadcast. All ranks must call
// it in the same order, the usual MPI collective contract.
func (c *Comm) Allreduce(op ReduceOp, vals []float64) {
	tag := c.nextCollTag()
	size, rank := c.Size(), c.rank
	tmp := make([]float64, len(vals))
	// Reduce to rank 0.
	for step := 1; step < size; step <<= 1 {
		if rank&step != 0 {
			c.send(rank-step, tag, vals)
			break
		}
		if rank+step < size {
			c.Recv(rank+step, tag, tmp)
			combine(op, vals, tmp)
		}
	}
	// Broadcast from rank 0, mirroring the reduction tree.
	c.bcastTree(tag+1, vals)
}

func (c *Comm) bcastTree(tag int, vals []float64) {
	size, rank := c.Size(), c.rank
	// Find the highest step at which this rank receives.
	mask := 1
	for mask < size {
		mask <<= 1
	}
	for step := mask >> 1; step >= 1; step >>= 1 {
		if rank&(step-1) == 0 { // participant at this level
			if rank&step != 0 {
				c.Recv(rank-step, tag, vals)
			} else if rank+step < size {
				c.send(rank+step, tag, vals)
			}
		}
	}
}

// Gather collects each rank's send slice at root. On root it returns one
// slice per rank (index = rank); on other ranks it returns nil. Slices may
// have different lengths (MPI_Gatherv). Root owns what it returns: the
// payload slots of its peers' messages are never recycled.
func (c *Comm) Gather(root int, send []float64) [][]float64 {
	c.checkRank(root)
	tag := c.nextCollTag()
	if c.rank != root {
		c.send(root, tag, send)
		return nil
	}
	out := make([][]float64, c.Size())
	for r := 0; r < c.Size(); r++ {
		if r == root {
			out[r] = append([]float64(nil), send...)
			continue
		}
		e := c.world.boxes[c.rank].get(r, tag)
		out[r] = e.data
	}
	return out
}

func combine(op ReduceOp, dst, src []float64) {
	switch op {
	case OpSum:
		for i := range dst {
			dst[i] += src[i]
		}
	case OpMax:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case OpMin:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	default:
		panic(fmt.Sprintf("mpi: bad reduce op %d", int(op)))
	}
}

func (c *Comm) nextCollTag() int {
	t := collTagBase + 2*c.collSeq
	c.collSeq++
	return t
}

func (c *Comm) checkRank(r int) {
	if r < 0 || r >= c.world.size {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, c.world.size))
	}
}

func (c *Comm) checkTag(tag int) {
	if tag < 0 || tag >= collTagBase {
		panic(fmt.Sprintf("mpi: tag %d out of range [0,%d)", tag, collTagBase))
	}
}

func (c *Comm) checkTagOrAny(tag int) {
	if tag != AnyTag {
		c.checkTag(tag)
	}
}
