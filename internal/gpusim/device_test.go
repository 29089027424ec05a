package gpusim

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/vtime"
)

func testDevice() *Device { return NewDevice(TeslaC2050(), PCIeGen2()) }

func TestAllocFree(t *testing.T) {
	d := testDevice()
	b := d.Alloc(1000)
	if b.Len() != 1000 {
		t.Fatalf("Len = %d", b.Len())
	}
	if d.allocated != 8000 {
		t.Fatalf("allocated = %d", d.allocated)
	}
	d.Free(b)
	if d.allocated != 0 {
		t.Fatalf("after free allocated = %d", d.allocated)
	}
}

func TestAllocOutOfMemoryPanics(t *testing.T) {
	d := testDevice()
	defer func() {
		if recover() == nil {
			t.Fatal("OOM not detected")
		}
	}()
	d.Alloc(int(d.Props.GlobalMemBytes/8) + 1)
}

func TestMemcpyRoundTrip(t *testing.T) {
	d := testDevice()
	buf := d.Alloc(4)
	src := []float64{1, 2, 3, 4}
	end := d.Memcpy(0, HostToDevice, buf, src)
	if end <= 0 {
		t.Fatal("sync copy took no time")
	}
	dst := make([]float64, 4)
	d.Memcpy(end, DeviceToHost, buf, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("round trip lost data: %v", dst)
		}
	}
	if d.BytesH2D != 32 || d.BytesD2H != 32 {
		t.Fatalf("stats H2D=%dB D2H=%dB", d.BytesH2D, d.BytesD2H)
	}
}

func TestMemcpySizeMismatchPanics(t *testing.T) {
	d := testDevice()
	buf := d.Alloc(4)
	defer func() {
		if recover() == nil {
			t.Fatal("size mismatch accepted")
		}
	}()
	d.Memcpy(0, HostToDevice, buf, make([]float64, 3))
}

func TestMemcpyAsyncReturnsImmediately(t *testing.T) {
	d := testDevice()
	s := d.NewStream("s")
	buf := d.Alloc(1 << 20)
	host := d.MemcpyAsync(0, s, HostToDevice, buf, make([]float64, 1<<20))
	if host != 0 {
		t.Fatalf("async copy advanced host time to %v", host)
	}
	done := s.Synchronize(host)
	want := vtime.Time(d.Link.CopyTime(8 << 20))
	if done != want {
		t.Fatalf("stream drained at %v, want %v", done, want)
	}
}

func TestStreamOrdering(t *testing.T) {
	d := testDevice()
	s := d.NewStream("s")
	b1 := d.Alloc(1000)
	b2 := d.Alloc(1000)
	h := make([]float64, 1000)
	d.MemcpyAsync(0, s, HostToDevice, b1, h)
	d.MemcpyAsync(0, s, HostToDevice, b2, h)
	// Two copies serialized in the stream (and on the DMA engine).
	want := vtime.Time(2 * d.Link.CopyTime(8000))
	if got := s.Synchronize(0); got != want {
		t.Fatalf("stream end %v, want %v", got, want)
	}
}

func TestTwoStreamsOverlapKernels(t *testing.T) {
	// On a concurrent-kernel device, kernels in different streams overlap;
	// on a serialized device they queue on the engine.
	l := StencilLaunch(64, 64, 64, 32, 8)
	run := func(p Props) (end vtime.Time) {
		d := NewDevice(p, PCIeGen2())
		s1 := d.NewStream("a")
		s2 := d.NewStream("b")
		d.Launch(0, s1, "k1", l, func() {})
		d.Launch(0, s2, "k2", l, func() {})
		return d.Synchronize(0, s1, s2)
	}
	tSer := run(TeslaC1060())
	tCon := run(TeslaC2050())
	k1060, _ := KernelTime(TeslaC1060(), l)
	k2050, _ := KernelTime(TeslaC2050(), l)
	// Serialized device: ≈ 2 kernels back to back.
	if lo := vtime.Time(2 * k1060); tSer < lo {
		t.Fatalf("C1060 two kernels finished at %v, want >= %v", tSer, lo)
	}
	// Concurrent device: ≈ 1 kernel duration (plus launch gap).
	if hi := vtime.Time(k2050 + 3*TeslaC2050().KernelLaunchSec); tCon > hi {
		t.Fatalf("C2050 two kernels finished at %v, want <= %v", tCon, hi)
	}
}

func TestLaunchRunsBodyFunctionally(t *testing.T) {
	d := testDevice()
	s := d.NewStream("s")
	buf := d.Alloc(8)
	ran := false
	d.Launch(0, s, "fill", StencilLaunch(8, 1, 1, 8, 1), func() {
		ran = true
		for i := range buf.Data() {
			buf.Data()[i] = float64(i)
		}
	})
	if !ran {
		t.Fatal("kernel body did not run")
	}
	out := make([]float64, 8)
	d.Memcpy(s.Synchronize(0), DeviceToHost, buf, out)
	if out[5] != 5 {
		t.Fatalf("kernel result lost: %v", out)
	}
	if d.Kernels != 1 {
		t.Fatalf("kernel count %d", d.Kernels)
	}
}

func TestLaunchHostPaysOnlyLaunchOverhead(t *testing.T) {
	d := testDevice()
	s := d.NewStream("s")
	after := d.Launch(0, s, "k", StencilLaunch(420, 420, 420, 32, 8), func() {})
	if after != vtime.Time(d.Props.KernelLaunchSec) {
		t.Fatalf("host time after launch %v, want %v", after, d.Props.KernelLaunchSec)
	}
	if s.Synchronize(0) <= after {
		t.Fatal("kernel should still be running after launch returns")
	}
}

func TestHalfDuplexVsDualDMA(t *testing.T) {
	h := make([]float64, 1<<18)
	run := func(p Props) vtime.Time {
		d := NewDevice(p, PCIeGen2())
		s1 := d.NewStream("up")
		s2 := d.NewStream("down")
		up := d.Alloc(len(h))
		down := d.Alloc(len(h))
		d.MemcpyAsync(0, s1, HostToDevice, up, h)
		d.MemcpyAsync(0, s2, DeviceToHost, down, h)
		return d.Synchronize(0, s1, s2)
	}
	one := run(TeslaC1060()) // single DMA engine: serialized
	two := run(TeslaC2050()) // dual engines: overlapped
	if one <= two {
		t.Fatalf("half duplex (%v) should be slower than dual DMA (%v)", one, two)
	}
}

func TestConstantMemory(t *testing.T) {
	d := testDevice()
	end := d.LoadConstant(0, []float64{1, 2, 3})
	if end <= 0 {
		t.Fatal("constant upload free")
	}
}

func TestDeviceTrace(t *testing.T) {
	d := testDevice()
	rec := obs.NewRecorder()
	d.SetObserver(rec, 3)
	s := d.NewStream("s")
	buf := d.Alloc(100)
	d.Memcpy(0, HostToDevice, buf, make([]float64, 100))
	d.Launch(0, s, "k", StencilLaunch(16, 16, 16, 16, 4), func() {})
	spans := rec.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorder has %d spans, want 2", len(spans))
	}
	phases := map[obs.Phase]bool{}
	for _, sp := range spans {
		if sp.Rank != 3 || sp.End <= sp.Start {
			t.Fatalf("span %+v: want rank 3 and a positive simulated extent", sp)
		}
		phases[sp.Phase] = true
	}
	if !phases[obs.PhaseH2D] || !phases[obs.PhaseKernel] {
		t.Fatalf("phases %v", phases)
	}
}

func TestBufferWrongDevicePanics(t *testing.T) {
	d1 := testDevice()
	d2 := testDevice()
	b := d1.Alloc(4)
	defer func() {
		if recover() == nil {
			t.Fatal("cross-device buffer accepted")
		}
	}()
	d2.Memcpy(0, HostToDevice, b, make([]float64, 4))
}

func TestStreamAutoNames(t *testing.T) {
	d := testDevice()
	s0 := d.NewStream("")
	s1 := d.NewStream("")
	if s0.name == s1.name {
		t.Fatal("auto stream names collide")
	}
}

func TestHostClock(t *testing.T) {
	var h HostClock
	if h.Now() != 0 {
		t.Fatal("zero clock not at 0")
	}
	h.Set(5)
	h.Set(3) // never backwards
	if h.Now() != 5 {
		t.Fatalf("Now = %v, want 5", h.Now())
	}
}

func TestDeviceSharedByGoroutines(t *testing.T) {
	// The paper runs several MPI tasks per GPU; the simulated device must
	// tolerate concurrent use and serialize virtual time consistently.
	d := NewDevice(TeslaC1060(), PCIeGen1())
	l := StencilLaunch(32, 32, 32, 16, 8)
	kt, _ := KernelTime(d.Props, l)
	const workers = 4
	done := make(chan vtime.Time, workers)
	for w := 0; w < workers; w++ {
		go func() {
			s := d.NewStream("")
			var host vtime.Time
			for i := 0; i < 3; i++ {
				host = d.Launch(host, s, "k", l, func() {})
			}
			done <- s.Synchronize(host)
		}()
	}
	var latest vtime.Time
	for w := 0; w < workers; w++ {
		if e := <-done; e > latest {
			latest = e
		}
	}
	// No concurrent kernels on the C1060: 12 kernels serialize on the
	// engine, so the last completion is at least 12 kernel times.
	if latest < vtime.Time(12*kt) {
		t.Fatalf("shared device finished at %v, want >= %v", latest, 12*kt)
	}
	if d.Kernels != 12 {
		t.Fatalf("kernel count %d, want 12", d.Kernels)
	}
}

// TestUntracedDeviceCallsAllocateNothing holds the device path to the
// contract of its recorder: with no observer attached, a copy or a launch
// costs no allocation — in particular no span label is formatted.
func TestUntracedDeviceCallsAllocateNothing(t *testing.T) {
	d := testDevice()
	s := d.NewStream("s")
	buf := d.Alloc(1 << 10)
	host := make([]float64, buf.Len())
	l := StencilLaunch(32, 32, 32, 16, 8)
	body := func() {}
	for name, call := range map[string]func(){
		"Memcpy":      func() { d.Memcpy(0, HostToDevice, buf, host) },
		"MemcpyAsync": func() { d.MemcpyAsync(0, s, DeviceToHost, buf, host) },
		"Launch":      func() { d.Launch(0, s, "k", l, body) },
	} {
		if n := testing.AllocsPerRun(100, call); n != 0 {
			t.Errorf("untraced %s allocates %v times per call", name, n)
		}
	}
}

// BenchmarkMemcpyUntraced is the per-call cost of a small synchronous copy
// on an unobserved device, which every step of §IV-F…I pays twice or more.
func BenchmarkMemcpyUntraced(b *testing.B) {
	d := testDevice()
	buf := d.Alloc(64)
	host := make([]float64, buf.Len())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Memcpy(0, HostToDevice, buf, host)
	}
}
