package impl

import (
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// exchanger performs the paper's dimension-serialized halo exchange
// (§IV-B): three phases, x then y then z, each exchanging one face pair
// with the two neighbors in that dimension. Later phases send ranges
// widened by the halos received in earlier phases, so corner and edge
// values propagate and every task effectively communicates with its 26
// logical neighbors through only 6 exchanges.
//
// A face costs two copies when the neighbor is another rank — packed into
// a slot the neighbor's mailbox lends, unpacked out of the slot delivered
// here — and one when both neighbors in a dimension are the rank itself:
// that phase is the single task's periodic copy (§IV-A), with no message.
type exchanger struct {
	c    *mpi.Comm
	rank int
	f    *grid.Field

	rec  *obs.Recorder
	step int

	self  [3]bool            // both neighbors in the dimension are this rank
	sends [3][2]*mpi.Request // persistent sends of the low and high faces
	recvs [3][2]*mpi.Request // persistent receives into the low and high halos
}

var dimNames = [3]string{"x", "y", "z"} // span labels: a step indexes, never concatenates
var thirdNames = [3]string{"third.x", "third.y", "third.z"}
var wallsNames = [3]string{"walls.x", "walls.y", "walls.z"}

// setObs attaches the span recorder to the exchanger and its communicator.
func (e *exchanger) setObs(r *obs.Recorder) {
	e.rec = r
	e.c.SetRecorder(r)
}

// setStep tags this step's spans — the exchanger's pack/unpack/exchange
// windows and the communicator's mpi.* spans — with the timestep.
func (e *exchanger) setStep(s int) {
	e.step = s
	e.c.SetStep(s)
}

// Tag layout: the message carrying a task's low face in dimension d is
// tagLow(d); its high face is tagHigh(d). Distinct tags keep the two
// directions apart when both neighbors are the same other rank (a task
// grid of extent 2).
func tagLow(dim int) int  { return dim * 2 }
func tagHigh(dim int) int { return dim*2 + 1 }

// newExchanger makes the persistent sends and receives of every dimension
// that has another rank for a neighbor, once; each phase restarts them.
func newExchanger(c *mpi.Comm, d grid.Decomp, f *grid.Field) *exchanger {
	e := &exchanger{c: c, rank: c.Rank(), f: f}
	for dim := 0; dim < 3; dim++ {
		lo, hi := d.Neighbor(e.rank, dim, -1), d.Neighbor(e.rank, dim, +1)
		if lo == e.rank { // a task grid of extent 1 in dim: hi is this rank too
			e.self[dim] = true
			continue
		}
		n := f.FaceCount(dim) * f.Halo
		e.sends[dim] = [2]*mpi.Request{c.SendInit(lo, tagLow(dim), n), c.SendInit(hi, tagHigh(dim), n)}
		// My low halo receives the high face of my -dim neighbor; my high
		// halo receives the low face of my +dim neighbor.
		e.recvs[dim] = [2]*mpi.Request{c.RecvInit(lo, tagHigh(dim), n), c.RecvInit(hi, tagLow(dim), n)}
	}
	return e
}

// phase is one in-flight dimension exchange.
type phase struct {
	dim int
	t0  float64 // recorder clock at start, for the mpi.exchange span
}

// start posts the exchange for one dimension: nonblocking receives first
// (as the paper's implementations do), then the faces packed straight into
// the lent send slots and sent eagerly. A dimension of self-neighbors has
// nothing to post: its copy happens in finish.
func (e *exchanger) start(dim int) phase {
	ph := phase{dim: dim, t0: e.rec.Clock()}
	if e.self[dim] {
		return ph
	}
	recvs, sends := &e.recvs[dim], &e.sends[dim]
	recvs[0].Start()
	recvs[1].Start()
	a := e.rec.Begin(e.rank, e.step, obs.PhaseHaloPack, dimNames[dim])
	e.f.PackFace(dim, -1, e.f.Halo, sends[0].Wait())
	e.f.PackFace(dim, +1, e.f.Halo, sends[1].Wait())
	a.End()
	sends[0].Start()
	sends[1].Start()
	return ph
}

// finish completes a phase: it unpacks the delivered slots into the halo
// (the receives hand them back at the next start), or performs the
// periodic copy of a dimension of self-neighbors — the same ranges and
// depth as a pack and unpack would move. The mpi.exchange span it records
// covers the whole in-flight window since start — any compute span landing
// inside it is communication the schedule actually hid.
func (e *exchanger) finish(ph phase) {
	dim := ph.dim
	if e.self[dim] {
		a := e.rec.Begin(e.rank, e.step, obs.PhaseHaloUnpack, dimNames[dim])
		e.f.PeriodicSweep(dim)
		a.End()
	} else {
		lo, hi := e.recvs[dim][0].Wait(), e.recvs[dim][1].Wait()
		a := e.rec.Begin(e.rank, e.step, obs.PhaseHaloUnpack, dimNames[dim])
		e.f.UnpackFace(dim, -1, e.f.Halo, lo)
		e.f.UnpackFace(dim, +1, e.f.Halo, hi)
		a.End()
	}
	e.rec.Add(e.rank, e.step, obs.PhaseMPIExchange, dimNames[dim], ph.t0, e.rec.Clock())
}

// exchange runs phases from, …, to-1 back to back; exchange(0, 3) is the
// full bulk-synchronous exchange.
func (e *exchanger) exchange(from, to int) {
	for dim := from; dim < to; dim++ {
		e.finish(e.start(dim))
	}
}
