// Package mpi is an in-process message-passing runtime with MPI semantics,
// standing in for the Cray MPT / OpenMPI libraries of the paper. Ranks run
// as goroutines inside one World; a receive matches exactly one source and
// one tag (there are no wildcards), in MPI's non-overtaking order;
// persistent Requests are completed by Wait. The collectives use the same
// mailboxes on tags of their own: Allreduce is a binomial-tree reduce and
// broadcast, Gather sends straight to its root, and Barrier goes through
// rank 0 with empty messages that Stats does not count.
//
// Sends are buffered (eager): Send copies the payload and returns
// immediately, so the communication patterns of the paper — which post
// receives before sends precisely to be safe under rendezvous protocols —
// are deadlock-free here too. The copy goes into a payload slot the
// receiving rank's mailbox recycles: Recv hands its slot back once it has
// copied it out, so a steady exchange allocates nothing.
//
// Requests are persistent, as MPI_Send_init and MPI_Recv_init make them,
// and lend slots instead of copying. SendInit binds a destination, tag and
// count once; its Wait borrows a free slot of the destination's mailbox for
// the caller to fill, and Start enqueues that slot as it is. The next Wait
// borrows the next slot, so a one-shot send takes exactly one. RecvInit
// binds a source, tag and count; Start posts it, and Wait returns the
// delivered slot itself, which the request keeps until its next Start
// hands it back to the mailbox. A message between two ranks thus costs the
// caller's pack into the lent slot and its unpack out of the delivered one,
// and nothing is allocated per message.
//
// Functional correctness is this package's job; communication *cost* on the
// paper's machines is modeled separately by internal/perf.
package mpi

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

const collTagBase = 1 << 30 // internal tag space for collectives

// World owns the mailboxes of a fixed set of ranks.
type World struct {
	size  int
	boxes []*mailbox
}

// NewWorld creates a world of size ranks.
func NewWorld(size int) *World {
	if size < 1 {
		panic(fmt.Sprintf("mpi: world size %d < 1", size))
	}
	w := &World{size: size, boxes: make([]*mailbox, size)}
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
// memory) but including the messages of Allreduce and Gather. Barrier's
// empty messages are not counted.
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

// SetRecorder attaches a span recorder: Send, Recv, Start and Wait calls record
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
	c.countSent(dst, len(data))
}

func (c *Comm) countSent(dst, n int) {
	if dst != c.rank {
		c.stats.SentMessages++
		c.stats.SentValues += n
	}
}

// Recv blocks until a message from src with tag arrives, copies it into
// buf, and returns the number of values received. It panics if buf is too
// small, as a real MPI would report MPI_ERR_TRUNCATE.
func (c *Comm) Recv(src, tag int, buf []float64) int {
	c.checkRank(src)
	data := c.recv(src, tag, len(buf))
	copy(buf, data)
	c.world.boxes[c.rank].recycle(data)
	return len(data)
}

// recv is the one receive path: it takes the earliest message from src with
// tag out of this rank's mailbox and returns its payload slot, which
// the caller owns until it recycles it. A message longer than n is refused
// with a truncation panic, and its slot goes back to the mailbox.
func (c *Comm) recv(src, tag, n int) []float64 {
	box := c.world.boxes[c.rank]
	a := c.rec.Begin(c.rank, c.step, obs.PhaseMPIRecv, "recv")
	e := box.get(src, tag)
	a.End()
	if len(e.data) > n {
		box.recycle(e.data)
		panic(fmt.Sprintf("mpi: rank %d: truncation: %d values into %d buffer (src %d tag %d)",
			c.rank, len(e.data), n, e.src, e.tag))
	}
	if e.src != c.rank {
		c.stats.RecvMessages++
		c.stats.RecvValues += len(e.data)
	}
	return e.data
}

// Request is a persistent operation, as MPI_Send_init and MPI_Recv_init
// make one: SendInit or RecvInit makes it inactive, and each Start and
// Wait after that is one message, with nothing copied by the request and
// nothing allocated. A request holds at most one payload slot at a time:
// the buffer a send's Wait returns, and the payload a receive's Wait
// returns, are the caller's to use until the request's next Start.
type Request struct {
	c         *Comm
	box       *mailbox // the destination's mailbox for a send, this rank's for a receive
	peer, tag int      // destination of a send, source of a receive
	n         int
	send      bool
	active    bool
	slot      []float64 // the send's next buffer, or the receive's last payload
}

// SendInit makes a persistent send of n values to dst with tag, as
// MPI_Send_init does. It borrows nothing yet: Wait returns the buffer to
// fill — a free slot of dst's mailbox the request borrows — and Start
// enqueues it without a copy. Under the eager protocol the send is complete
// when Start returns, so Wait never blocks.
func (c *Comm) SendInit(dst, tag, n int) *Request {
	c.checkRank(dst)
	c.checkTag(tag)
	return &Request{c: c, box: c.world.boxes[dst], peer: dst, tag: tag, n: n, send: true}
}

// RecvInit makes a persistent receive of at most n values from src with
// tag, as MPI_Recv_init does: an inactive request that each Start posts and
// each Wait completes. A delivered message longer than n panics in Wait, as
// Recv does.
func (c *Comm) RecvInit(src, tag, n int) *Request {
	c.checkRank(src)
	c.checkTag(tag)
	return &Request{c: c, box: c.world.boxes[c.rank], peer: src, tag: tag, n: n}
}

// Start begins one operation of the request. A send enqueues the buffer
// Wait returned, as it is (borrowing one first if no Wait did), and holds
// no slot until its next Wait. A receive first hands its last payload back
// to the mailbox, then posts the receive; the match is performed when Wait
// is called. Start panics on an active receive, or on a request neither
// SendInit nor RecvInit made.
func (r *Request) Start() {
	c := r.c
	switch {
	case c == nil || r.active:
		panic("mpi: Start needs an inactive request made by SendInit or RecvInit")
	case r.send:
		a := c.rec.Begin(c.rank, c.step, obs.PhaseMPISend, "send")
		r.box.post(c.rank, r.tag, r.Wait())
		r.slot = nil
		a.End()
		c.countSent(r.peer, r.n)
	default:
		if r.slot != nil {
			r.box.recycle(r.slot)
			r.slot = nil
		}
		r.active = true
	}
}

// Wait completes the request and returns its slot: for a send, the buffer
// of n values the next Start sends, borrowed from the destination unless an
// earlier Wait since the last Start did; for a receive, the delivered
// payload, blocking until it arrives. Wait is idempotent: on an inactive
// receive it returns the last payload again (nil before the first).
func (r *Request) Wait() []float64 {
	if r.send && r.slot == nil {
		r.slot = r.box.lend(r.n)
	}
	if r.active {
		c := r.c
		a := c.rec.Begin(c.rank, c.step, obs.PhaseMPIWait, "irecv")
		r.slot = c.recv(r.peer, r.tag, r.n)
		a.End()
		r.active = false
	}
	return r.slot
}

// Barrier blocks until every rank in the world has entered it. Each rank
// but 0 sends rank 0 an empty message and waits for rank 0's release, which
// rank 0 sends everyone once it has all of theirs. The messages go straight
// through the mailboxes, so they are neither counted in Stats nor traced,
// and a peer's panic reaches a waiting rank as it reaches any receive.
func (c *Comm) Barrier() {
	tag := c.nextCollTag()
	boxes := c.world.boxes
	if c.rank != 0 {
		boxes[0].put(c.rank, tag, nil)
		boxes[c.rank].recycle(boxes[c.rank].get(0, tag+1).data)
		return
	}
	for r := 1; r < c.Size(); r++ {
		boxes[0].recycle(boxes[0].get(r, tag).data)
	}
	for r := 1; r < c.Size(); r++ {
		boxes[r].put(0, tag+1, nil)
	}
}

// ReduceOp names an Allreduce combining operation.
type ReduceOp int

const (
	// OpSum sums elementwise.
	OpSum ReduceOp = iota
	// OpMax takes the elementwise maximum.
	OpMax
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
// payload slots of its peers' messages are never recycled. It takes them
// from its mailbox without the recv path's span, but counts them in Stats.
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
		out[r] = c.world.boxes[c.rank].get(r, tag).data
		c.stats.RecvMessages++
		c.stats.RecvValues += len(out[r])
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
