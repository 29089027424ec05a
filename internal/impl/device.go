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
	halo := 1
	if !sch.kind.UsesMPI() {
		halo = 0 // no neighbours: the kernel wraps around the global domain
	}
	r.st = newDevState(r, halo)
	for _, name := range sch.streams {
		r.streams = append(r.streams, dev.NewStream(name))
	}
}

// devState is a pair of device-resident state fields (current and next)
// over a rank's device domain r.box, with the stencil coefficients in
// constant memory. The CPU flips cur and nxt between steps instead of
// copying, as the paper's GPU implementations do ("flipping the arguments
// between two GPU state variables to avoid the need for an extra copy
// operation").
type devState struct {
	halo           int
	curBuf, nxtBuf *gpusim.Buffer
	cur, nxt       *grid.Field // views over the device buffers
	op             *stencil.Op // built from constant memory
}

// newDevState allocates device memory for r.box with the given halo
// width, uploads the coefficients to constant memory, and uploads the box
// of the host state as the initial state.
func newDevState(r *rank, halo int) *devState {
	n := r.box.Size
	s := &devState{halo: halo}
	size := (n.X + 2*halo) * (n.Y + 2*halo) * (n.Z + 2*halo)
	s.curBuf, s.nxtBuf = r.alloc(size), r.alloc(size)
	s.cur = grid.NewFieldOn(n, halo, s.curBuf.Data())
	s.nxt = grid.NewFieldOn(n, halo, s.nxtBuf.Data())

	flat := stencil.TableI(r.p.C, r.p.Nu).Flat()
	r.host.Set(r.dev.LoadConstant(r.host.Now(), flat[:]))
	// The kernels read the coefficients back from constant memory.
	s.op = stencil.NewOp(stencil.FromFlat([27]float64(r.dev.Constant())), s.cur)

	staging := make([]float64, size)
	grid.NewFieldOn(n, halo, staging).CopyBox(grid.Dims{}, r.cur, r.box)
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
	view := grid.NewFieldOn(r.box.Size, r.st.halo, staging)
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

// runTiledKernel is the functional body shared by the resident and
// interior kernels: it walks the launch's thread blocks, stages each z
// slab of the block's tile (with a one-point halo ring, loaded by the halo
// threads) into a shared-memory tile, and computes Eq. 2 for the interior
// threads, rotating three tile slabs as z advances. With wrap=true the
// tile loads wrap around the global domain (periodic single-GPU kernel);
// otherwise out-of-range loads come from the field's halo storage.
func runTiledKernel(op *stencil.Op, cur, nxt *grid.Field, sub grid.Subdomain, bx, by int, wrap bool) {
	c := op.Coeffs()
	n := cur.N
	hi := sub.Hi()
	tw, th := bx+2, by+2 // tile extents with halo ring
	km := make([]float64, tw*th)
	kc := make([]float64, tw*th)
	kp := make([]float64, tw*th)

	wrapIdx := func(v, m int) int { return ((v % m) + m) % m }
	clamp := func(v, lo, hi int) int { return min(max(v, lo), hi) }
	h := cur.Halo
	load := func(tile []float64, bi0, bj0, k int) {
		// Every thread of the block, halo threads included, loads one tile
		// element. Tile entries belonging to inactive threads past the
		// domain edge are clamped into valid storage; their values are
		// never read by an active thread.
		for ty := 0; ty < th; ty++ {
			gy := bj0 + ty - 1
			for tx := 0; tx < tw; tx++ {
				gx := bi0 + tx - 1
				x, y, z := gx, gy, k
				if wrap {
					x, y, z = wrapIdx(x, n.X), wrapIdx(y, n.Y), wrapIdx(z, n.Z)
				} else {
					x = clamp(x, -h, n.X+h-1)
					y = clamp(y, -h, n.Y+h-1)
					z = clamp(z, -h, n.Z+h-1)
				}
				tile[ty*tw+tx] = cur.At(x, y, z)
			}
		}
	}

	for bj0 := sub.Lo.Y; bj0 < hi.Y; bj0 += by {
		for bi0 := sub.Lo.X; bi0 < hi.X; bi0 += bx {
			// Prime the rotating slabs for the first z iteration.
			load(km, bi0, bj0, sub.Lo.Z-1)
			load(kc, bi0, bj0, sub.Lo.Z)
			for k := sub.Lo.Z; k < hi.Z; k++ {
				load(kp, bi0, bj0, k+1)
				for ty := 1; ty < th-1; ty++ {
					gy := bj0 + ty - 1
					if gy >= hi.Y {
						continue // inactive thread past the domain edge
					}
					for tx := 1; tx < tw-1; tx++ {
						gx := bi0 + tx - 1
						if gx >= hi.X {
							continue
						}
						var sum float64
						for dj := -1; dj <= 1; dj++ {
							row := (ty+dj)*tw + tx
							sum += c.At(-1, dj, -1)*km[row-1] + c.At(0, dj, -1)*km[row] + c.At(+1, dj, -1)*km[row+1]
							sum += c.At(-1, dj, 0)*kc[row-1] + c.At(0, dj, 0)*kc[row] + c.At(+1, dj, 0)*kc[row+1]
							sum += c.At(-1, dj, +1)*kp[row-1] + c.At(0, dj, +1)*kp[row] + c.At(+1, dj, +1)*kp[row+1]
						}
						nxt.Set(gx, gy, k, sum)
					}
				}
				km, kc, kp = kc, kp, km
			}
		}
	}
}
