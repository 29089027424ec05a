package gpusim

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/vtime"
)

// Device is one simulated GPU. It owns device memory, constant memory, a
// PCIe link, and the virtual-time resources that serialize what the real
// hardware serializes: the kernel engine (on devices without concurrent
// kernels) and the DMA engines. A Device may be shared by several host
// goroutines (the paper runs multiple MPI tasks per GPU); its methods are
// safe for concurrent use.
type Device struct {
	Props Props
	Link  Link

	mu        sync.Mutex
	engine    *vtime.Resource // kernel serialization when !ConcurrentKernels
	dmaH2D    *vtime.Resource
	dmaD2H    *vtime.Resource
	obsRec    *obs.Recorder
	obsRank   int
	allocated int64
	streamSeq int

	// Stats
	Kernels  int
	BytesH2D int64
	BytesD2H int64
}

// NewDevice creates a device with the given properties and PCIe link.
func NewDevice(p Props, l Link) *Device {
	d := &Device{
		Props:  p,
		Link:   l,
		engine: vtime.NewResource(p.Name + ".engine"),
		dmaH2D: vtime.NewResource(p.Name + ".dma0"),
	}
	if p.CopyEngines >= 2 {
		d.dmaD2H = vtime.NewResource(p.Name + ".dma1")
	} else {
		d.dmaD2H = d.dmaH2D // half duplex: one engine serves both directions
	}
	return d
}

// SetObserver records the device timeline — kernels and PCIe copies, in
// simulated time — into an obs recorder, attributing the spans to rank
// (the device's owning rank, or the group's first rank when tasks share
// the GPU). It is the one record of the timeline: the overlap report and
// the Chrome trace both read it. A nil recorder disables recording.
func (d *Device) SetObserver(r *obs.Recorder, rank int) {
	d.mu.Lock()
	d.obsRec, d.obsRank = r, rank
	d.mu.Unlock()
}

// observe records one device span: a kernel on any stream is kernel time,
// a copy keeps its direction (the constant upload counts as host-to-device).
func (d *Device) observe(phase obs.Phase, label string, start, end vtime.Time) {
	d.mu.Lock()
	rec, rank := d.obsRec, d.obsRank
	d.mu.Unlock()
	if rec != nil {
		rec.Add(rank, -1, phase, label, start.Seconds(), end.Seconds())
	}
}

// observed reports whether a recorder is attached. A call whose span label
// must be formatted asks first, so that an untraced device call allocates
// nothing.
func (d *Device) observed() bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.obsRec != nil
}

// HostClock tracks a host goroutine's virtual time across device calls.
// It is a convenience for threading the host time through the Memcpy and
// Launch APIs; Set never moves the clock backwards.
type HostClock struct {
	t vtime.Time
}

// Now returns the current host time.
func (h *HostClock) Now() vtime.Time { return h.t }

// Set advances the clock to t (no-op if t is earlier).
func (h *HostClock) Set(t vtime.Time) {
	if t > h.t {
		h.t = t
	}
}

// Buffer is an allocation in device global memory. Host code moves data in
// and out only through Memcpy*; kernel bodies access Data directly.
type Buffer struct {
	dev  *Device
	data []float64
}

// Len returns the element count.
func (b *Buffer) Len() int { return len(b.data) }

// Data exposes the device-resident storage for kernel bodies. Host-side
// code must use the Memcpy family instead; tests may inspect it.
func (b *Buffer) Data() []float64 { return b.data }

// Alloc reserves n float64 elements of device global memory. It panics if
// the device capacity would be exceeded, the moral equivalent of
// cudaErrorMemoryAllocation — the paper sizes the 420³ problem to just fit
// a single GPU, so capacity is a real constraint.
func (d *Device) Alloc(n int) *Buffer {
	d.mu.Lock()
	defer d.mu.Unlock()
	bytes := int64(n) * 8
	if d.allocated+bytes > d.Props.GlobalMemBytes {
		panic(fmt.Sprintf("gpusim: %s out of memory: %d + %d > %d bytes",
			d.Props.Name, d.allocated, bytes, d.Props.GlobalMemBytes))
	}
	d.allocated += bytes
	return &Buffer{dev: d, data: make([]float64, n)}
}

// Free releases a buffer's reservation.
func (d *Device) Free(b *Buffer) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.allocated -= int64(len(b.data)) * 8
	b.data = nil
}

// LoadConstant charges the upload of vals to constant memory (the stencil
// coefficients in the paper's kernels) and returns the host time after it.
// Kernel bodies close over their coefficients on the host, so nothing is
// stored.
func (d *Device) LoadConstant(host vtime.Time, vals []float64) vtime.Time {
	start, end := d.dmaH2D.Acquire(host, vtime.Time(d.Link.CopyTime(len(vals)*8)))
	d.observe(obs.PhaseH2D, "constant upload", start, end)
	return end
}

// Stream is a CUDA stream: operations issued to one stream execute in
// order; operations in different streams may overlap.
type Stream struct {
	dev   *Device
	name  string
	mu    sync.Mutex
	avail vtime.Time
}

// NewStream creates a stream. name appears in traces.
func (d *Device) NewStream(name string) *Stream {
	d.mu.Lock()
	d.streamSeq++
	if name == "" {
		name = fmt.Sprintf("stream%d", d.streamSeq-1)
	}
	d.mu.Unlock()
	return &Stream{dev: d, name: name}
}

func (s *Stream) ready(host vtime.Time) vtime.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return vtime.Max(host, s.avail)
}

func (s *Stream) extend(end vtime.Time) {
	s.mu.Lock()
	if end > s.avail {
		s.avail = end
	}
	s.mu.Unlock()
}

// Synchronize blocks the host until all work issued to the stream has
// completed; it returns the host time after the wait (cudaStreamSynchronize).
func (s *Stream) Synchronize(host vtime.Time) vtime.Time {
	return s.ready(host)
}

// Direction labels a PCIe transfer.
type Direction int

const (
	// HostToDevice uploads host data into a device buffer.
	HostToDevice Direction = iota
	// DeviceToHost downloads a device buffer into host memory.
	DeviceToHost
)

func (dir Direction) String() string {
	if dir == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// Memcpy performs a synchronous transfer between host slice and device
// buffer (cudaMemcpy): the host blocks until the copy completes. It returns
// the host time after completion. dst/src element counts must match.
func (d *Device) Memcpy(host vtime.Time, dir Direction, devBuf *Buffer, hostBuf []float64) vtime.Time {
	return d.copy(host, nil, dir, devBuf, hostBuf, true)
}

// MemcpyAsync enqueues a transfer on a stream (cudaMemcpyAsync): it is
// ordered after prior work in the stream and the host continues
// immediately. The returned time is the host time after the (cheap) enqueue.
// The data movement itself is performed eagerly so the simulation stays
// functional; callers must respect stream ordering for correctness, as CUDA
// programs must.
func (d *Device) MemcpyAsync(host vtime.Time, s *Stream, dir Direction, devBuf *Buffer, hostBuf []float64) vtime.Time {
	return d.copy(host, s, dir, devBuf, hostBuf, false)
}

func (d *Device) copy(host vtime.Time, s *Stream, dir Direction, devBuf *Buffer, hostBuf []float64, sync bool) vtime.Time {
	if devBuf.dev != d {
		panic("gpusim: buffer belongs to a different device")
	}
	if len(hostBuf) != len(devBuf.data) {
		panic(fmt.Sprintf("gpusim: memcpy size mismatch: host %d, device %d",
			len(hostBuf), len(devBuf.data)))
	}
	// Functional move.
	if dir == HostToDevice {
		copy(devBuf.data, hostBuf)
	} else {
		copy(hostBuf, devBuf.data)
	}
	bytes := len(hostBuf) * 8
	dma, phase := d.dmaH2D, obs.PhaseH2D
	if dir == DeviceToHost {
		dma, phase = d.dmaD2H, obs.PhaseD2H
	}
	ready := host
	if s != nil {
		ready = s.ready(host)
	}
	start, end := dma.Acquire(ready, vtime.Time(d.Link.CopyTime(bytes)))
	if d.observed() {
		d.observe(phase, fmt.Sprintf("%s %dB", dir, bytes), start, end)
	}
	d.mu.Lock()
	if dir == HostToDevice {
		d.BytesH2D += int64(bytes)
	} else {
		d.BytesD2H += int64(bytes)
	}
	d.mu.Unlock()
	if s != nil {
		s.extend(end)
	}
	if sync {
		return end
	}
	return host // async: host proceeds immediately
}

// Launch enqueues a kernel on a stream. body runs immediately (functional
// execution); the kernel's device time is modelled by KernelTime and
// ordered after prior work in the stream (and serialized with all other
// kernels on devices without concurrent-kernel support). The returned time
// is the host time after the launch call — the host pays only the driver
// launch overhead, which is the whole point of asynchronous kernels.
func (d *Device) Launch(host vtime.Time, s *Stream, name string, l Launch, body func()) vtime.Time {
	if s == nil {
		panic("gpusim: Launch requires a stream")
	}
	dur, err := KernelTime(d.Props, l)
	if err != nil {
		panic(err)
	}
	body()
	hostAfter := host + vtime.Time(d.Props.KernelLaunchSec)
	ready := s.ready(hostAfter)
	var start, end vtime.Time
	if d.Props.ConcurrentKernels {
		start = ready
		end = start + vtime.Time(dur)
	} else {
		start, end = d.engine.Acquire(ready, vtime.Time(dur))
	}
	s.extend(end)
	d.observe(obs.PhaseKernel, name, start, end)
	d.mu.Lock()
	d.Kernels++
	d.mu.Unlock()
	return hostAfter
}

// Synchronize blocks the host until every stream passed has drained
// (cudaDeviceSynchronize over the streams in use) and returns the host time
// after the wait.
func (d *Device) Synchronize(host vtime.Time, streams ...*Stream) vtime.Time {
	t := host
	for _, s := range streams {
		t = vtime.Max(t, s.ready(host))
	}
	return t
}
