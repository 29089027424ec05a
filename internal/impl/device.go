package impl

import (
	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/stencil"
)

// deviceProps and deviceLink are the simulated device the options select.
func deviceProps(o core.Options) gpusim.Props {
	if o.GPU == core.GPUC1060 {
		return gpusim.TeslaC1060()
	}
	return gpusim.TeslaC2050()
}

func deviceLink(o core.Options) gpusim.Link {
	if o.GPU == core.GPUC1060 {
		return gpusim.PCIeGen1()
	}
	return gpusim.PCIeGen2()
}

// tasksPerGPU is the paper's tunable (§IV-F: "we can have more than one MPI
// task issuing calls to a particular GPU"); the default is a device each.
func tasksPerGPU(o core.Options) int { return max(1, o.TasksPerGPU) }

// devicePool builds the devices a world shares: rank r uses
// pool[r/tasksPerGPU(o)]. Each device records its virtual timeline into the
// run's recorder (a nil one records nothing), attributed to its group's
// first rank — with the default one task per GPU simply the owning rank.
func devicePool(o core.Options) []*gpusim.Device {
	per := tasksPerGPU(o)
	pool := make([]*gpusim.Device, (o.Tasks+per-1)/per)
	for i := range pool {
		pool[i] = gpusim.NewDevice(deviceProps(o), deviceLink(o))
		pool[i].SetObserver(o.Rec, i*per)
	}
	return pool
}

// attachDevice gives the rank its device: the state over the part of the
// subdomain the schedule keeps there, uploaded from the host state, and the
// streams its step issues work to.
func (r *rank) attachDevice(sch schedule, dev *gpusim.Device) {
	r.dev, r.box = dev, r.whole
	if sch.device == innerBlock {
		r.box = grid.BoxSplit{Local: r.sub.Size, T: r.o.BoxThickness}.Inner()
	}
	r.st = newDevState(r)
	for _, name := range sch.streams {
		r.streams = append(r.streams, dev.NewStream(name))
	}
}

// devState is a pair of device-resident state fields (current and next)
// over a rank's device domain r.box, each with the one-point halo shell the
// stencil reads, and the stencil coefficients in constant memory. The CPU
// flips cur and nxt between steps instead of copying, as the paper's GPU
// implementations do ("flipping the arguments between two GPU state
// variables to avoid the need for an extra copy operation").
//
// The paper's kernels stage shared-memory tiles of a thread block's xy slab
// and walk z (Micikevicius); gpusim charges a launch for exactly that, from
// its geometry. What a launch computes here is the row kernel of
// internal/stencil over the launch's points — op is the host's operator,
// built from the same Table I set — so a device schedule's field is the CPU
// schedules' field to the bit.
type devState struct {
	curBuf, nxtBuf *gpusim.Buffer
	cur, nxt       *grid.Field // views over the device buffers
	op             *stencil.Op
}

// newDevState allocates device memory for r.box, uploads the coefficients
// to constant memory (the transfer is charged; the kernels' operator is
// built from the set itself), and uploads the box of the host state as the
// initial state.
func newDevState(r *rank) *devState {
	n := r.box.Size
	s := &devState{}
	size := (n.X + 2) * (n.Y + 2) * (n.Z + 2)
	s.curBuf, s.nxtBuf = r.alloc(size), r.alloc(size)
	s.cur = grid.NewFieldOn(n, 1, s.curBuf.Data())
	s.nxt = grid.NewFieldOn(n, 1, s.nxtBuf.Data())

	coeffs := stencil.TableI(r.p.C, r.p.Nu)
	flat := coeffs.Flat()
	r.host.Set(r.dev.LoadConstant(r.host.Now(), flat[:]))
	s.op = stencil.NewOp(coeffs, s.cur)

	staging := make([]float64, size)
	grid.NewFieldOn(n, 1, staging).CopyBox(grid.Dims{}, r.cur, r.box)
	r.memcpy(gpusim.HostToDevice, s.curBuf, staging)
	return s
}

// flip exchanges the current and next state views and buffers.
func (s *devState) flip() {
	s.curBuf, s.nxtBuf = s.nxtBuf, s.curBuf
	s.cur, s.nxt = s.nxt, s.cur
}

// download copies the device's current state back into its box of the host
// state.
func (r *rank) download() {
	staging := make([]float64, r.st.curBuf.Len())
	r.memcpy(gpusim.DeviceToHost, r.st.curBuf, staging)
	view := grid.NewFieldOn(r.box.Size, 1, staging)
	r.cur.CopyBox(r.box.Lo, view, stencil.Whole(r.box.Size))
}

// alloc reserves device memory that freeDevice releases when the rank ends.
func (r *rank) alloc(n int) *gpusim.Buffer {
	b := r.dev.Alloc(n)
	r.bufs = append(r.bufs, b)
	return b
}

func (r *rank) freeDevice() {
	for _, b := range r.bufs {
		r.dev.Free(b)
	}
}

// The device calls below thread the rank's virtual host time through
// gpusim, which returns the host time after each call.

// launch enqueues a kernel on a stream.
func (r *rank) launch(s *gpusim.Stream, name string, l gpusim.Launch, body func()) {
	r.host.Set(r.dev.Launch(r.host.Now(), s, name, l, body))
}

// memcpy is a synchronous transfer: the host blocks until it completes.
func (r *rank) memcpy(dir gpusim.Direction, buf *gpusim.Buffer, host []float64) {
	r.host.Set(r.dev.Memcpy(r.host.Now(), dir, buf, host))
}

// memcpyAsync enqueues a transfer on a stream; the host continues.
func (r *rank) memcpyAsync(s *gpusim.Stream, dir gpusim.Direction, buf *gpusim.Buffer, host []float64) {
	r.host.Set(r.dev.MemcpyAsync(r.host.Now(), s, dir, buf, host))
}

// sync blocks the host until the streams have drained.
func (r *rank) sync(streams ...*gpusim.Stream) {
	for _, s := range streams {
		r.host.Set(s.Synchronize(r.host.Now()))
	}
}
