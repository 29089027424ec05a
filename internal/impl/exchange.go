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
type exchanger struct {
	c    *mpi.Comm
	rank int
	f    *grid.Field

	rec  *obs.Recorder
	step int

	nbr  [3][2]int // the -dim and +dim neighbors
	send [3][2][]float64
	recv [3][2][]float64
	reqs [3][2]*mpi.Request // persistent receives into recv, started each phase
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
// directions apart even when both neighbors are the same rank (task grids
// of extent 1 or 2).
func tagLow(dim int) int  { return dim * 2 }
func tagHigh(dim int) int { return dim*2 + 1 }

// newExchanger sizes the face buffers and makes the six receives once, as
// persistent requests each phase restarts.
func newExchanger(c *mpi.Comm, d grid.Decomp, f *grid.Field) *exchanger {
	e := &exchanger{c: c, rank: c.Rank(), f: f}
	for dim := 0; dim < 3; dim++ {
		n := f.FaceCount(dim) * f.Halo
		e.nbr[dim] = [2]int{d.Neighbor(e.rank, dim, -1), d.Neighbor(e.rank, dim, +1)}
		for s := 0; s < 2; s++ {
			e.send[dim][s] = make([]float64, n)
			e.recv[dim][s] = make([]float64, n)
		}
		// My low halo receives the high face of my -dim neighbor; my high
		// halo receives the low face of my +dim neighbor.
		e.reqs[dim][0] = c.RecvInit(e.nbr[dim][0], tagHigh(dim), e.recv[dim][0])
		e.reqs[dim][1] = c.RecvInit(e.nbr[dim][1], tagLow(dim), e.recv[dim][1])
	}
	return e
}

// phase is one in-flight dimension exchange.
type phase struct {
	dim int
	t0  float64 // recorder clock at start, for the mpi.exchange span
}

// start packs and posts the exchange for one dimension: nonblocking
// receives first (as the paper's implementations do), then eager sends.
func (e *exchanger) start(dim int) phase {
	ph := phase{dim: dim, t0: e.rec.Clock()}
	e.reqs[dim][0].Start()
	e.reqs[dim][1].Start()

	a := e.rec.Begin(e.rank, e.step, obs.PhaseHaloPack, dimNames[dim])
	e.f.PackFace(dim, -1, e.f.Halo, e.send[dim][0])
	e.f.PackFace(dim, +1, e.f.Halo, e.send[dim][1])
	a.End()
	e.c.ISend(e.nbr[dim][0], tagLow(dim), e.send[dim][0])
	e.c.ISend(e.nbr[dim][1], tagHigh(dim), e.send[dim][1])
	return ph
}

// finish completes the receives of a phase and unpacks them into the halo.
// The mpi.exchange span it records covers the whole in-flight window since
// start — any compute span landing inside it is communication the schedule
// actually hid.
func (e *exchanger) finish(ph phase) {
	e.reqs[ph.dim][0].Wait()
	e.reqs[ph.dim][1].Wait()
	a := e.rec.Begin(e.rank, e.step, obs.PhaseHaloUnpack, dimNames[ph.dim])
	e.f.UnpackFace(ph.dim, -1, e.f.Halo, e.recv[ph.dim][0])
	e.f.UnpackFace(ph.dim, +1, e.f.Halo, e.recv[ph.dim][1])
	a.End()
	e.rec.Add(e.rank, e.step, obs.PhaseMPIExchange, dimNames[ph.dim], ph.t0, e.rec.Clock())
}

// exchangeAll runs the full bulk-synchronous exchange: all three phases
// back to back.
func (e *exchanger) exchangeAll() {
	for dim := 0; dim < 3; dim++ {
		e.finish(e.start(dim))
	}
}
