// Tracing: drive the simulated CUDA device directly through the gpusim
// API — two streams, asynchronous copies — with an obs recorder attached,
// the same one recorder a traced run uses, and draw the resulting timeline
// as a Gantt chart, the picture behind the paper's Figure-9/10 gaps. The
// bulk schedule serializes PCIe traffic against the kernels; the stream
// schedule hides it, exactly like implementations §IV-F vs §IV-G, and the
// overlap report says by how much.
package main

import (
	"fmt"
	"os"

	"repro/internal/gpusim"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/vtime"
)

func main() {
	interior := gpusim.StencilLaunch(416, 416, 418, 32, 8)
	facePts := 420*420*420 - 418*418*418
	halo := make([]float64, facePts)

	run := func(overlap bool) *obs.Recorder {
		dev := gpusim.NewDevice(gpusim.TeslaC2050(), gpusim.PCIeGen2())
		rec := obs.NewRecorder()
		dev.SetObserver(rec, 0)
		s1 := dev.NewStream("interior")
		s2 := s1
		if overlap {
			s2 = dev.NewStream("boundary")
		}
		haloBuf := dev.Alloc(facePts)
		outBuf := dev.Alloc(facePts)

		var host vtime.Time
		for step := 0; step < 2; step++ {
			if overlap {
				// Stream schedule (§IV-G): interior first, boundary chain
				// behind it on the second stream.
				host = dev.Launch(host, s1, "interior", interior, func() {})
				host = dev.MemcpyAsync(host, s2, gpusim.HostToDevice, haloBuf, halo)
				host = dev.Launch(host, s2, "faces", gpusim.StencilLaunch(420, 420, 2, 32, 8), func() {})
				host = dev.MemcpyAsync(host, s2, gpusim.DeviceToHost, outBuf, halo)
			} else {
				// Bulk schedule (§IV-F): everything serialized.
				host = dev.Memcpy(host, gpusim.HostToDevice, haloBuf, halo)
				host = dev.Launch(host, s1, "faces", gpusim.StencilLaunch(420, 420, 2, 32, 8), func() {})
				host = dev.Launch(host, s1, "interior", interior, func() {})
				host = s1.Synchronize(host)
				host = dev.Memcpy(host, gpusim.DeviceToHost, outBuf, halo)
			}
			host = dev.Synchronize(host, s1, s2)
		}
		return rec
	}

	for _, mode := range []struct {
		name    string
		overlap bool
	}{
		{"bulk schedule (everything serialized, like IV-F)", false},
		{"stream schedule (PCIe + faces hidden behind interior, like IV-G)", true},
	} {
		rec := run(mode.overlap)
		var spans []stats.GanttSpan
		var end float64
		for _, s := range rec.Spans() {
			lane := s.Phase.String()
			if s.Phase == obs.PhaseKernel {
				lane += " " + s.Label // one lane per kernel: interior, faces
			}
			spans = append(spans, stats.GanttSpan{Lane: lane, Label: s.Label, Start: s.Start, End: s.End})
			end = max(end, s.End)
		}
		stats.Gantt(os.Stdout, mode.name, spans, 72)
		pair := rec.Report().Pair(obs.PairPCIeKernel)
		fmt.Printf("  makespan %.2f ms, PCIe time hidden under kernels: %.2f of %.2f ms\n\n",
			end*1e3, pair.OverlapSec*1e3, pair.CommSec*1e3)
	}
	fmt.Println("the stream schedule's makespan is shorter by almost exactly the")
	fmt.Println("hidden time — hiding communication is free throughput, which is")
	fmt.Println("the paper's thesis in one picture.")
}
