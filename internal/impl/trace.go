package impl

import (
	"math"
	"strings"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/vtime"
)

// poolTraces installs per-device recording on a world's device pool: a
// vtime.Trace per device when o.TraceOverlap is set (returned for stats
// merging), and the obs observer when the run carries a recorder. Device
// spans are attributed to the group's first rank — with the default one
// task per GPU that is simply the owning rank.
func poolTraces(pool []*gpusim.Device, o core.Options) []*vtime.Trace {
	if o.Rec != nil {
		for i, dev := range pool {
			dev.SetObserver(o.Rec, i*tasksPerGPU(o))
		}
	}
	if !o.TraceOverlap {
		return nil
	}
	traces := make([]*vtime.Trace, len(pool))
	for i, dev := range pool {
		traces[i] = vtime.NewTrace()
		dev.SetTrace(traces[i])
	}
	return traces
}

// mergedOverlapStats folds every device's overlap accounting into one stats
// map: per-key sums across devices (so a single-device world reads exactly
// as overlapStats), plus the device count and the min/max per-device
// overlap, which expose stragglers that a rank-0-only trace used to hide.
func mergedOverlapStats(traces []*vtime.Trace) map[string]float64 {
	stats := map[string]float64{}
	if len(traces) == 0 {
		return stats
	}
	minOv, maxOv := math.Inf(1), math.Inf(-1)
	for _, tr := range traces {
		per := map[string]float64{}
		overlapStats(tr, per)
		for k, v := range per {
			stats[k] += v
		}
		ov := per["trace.overlap.sec"]
		minOv = min(minOv, ov)
		maxOv = max(maxOv, ov)
	}
	stats["trace.devices"] = float64(len(traces))
	stats["trace.overlap.min.sec"] = minOv
	stats["trace.overlap.max.sec"] = maxOv
	if mean := stats["trace.overlap.sec"] / float64(len(traces)); mean > 0 {
		// Max/mean per-device overlap: the device-side imbalance ratio,
		// matching the rank-side straggler report in obs.BuildImbalance.
		stats["trace.overlap.imbalance"] = maxOv / mean
	}
	return stats
}

// overlapStats summarizes a device trace into Result.Stats entries: how
// much simulated time the interior kernel spent running concurrently with
// each other lane. The interior kernel's lane is "gpu.interior"; PCIe
// traffic is on "pcie.h2d"/"pcie.d2h"; boundary kernels run on
// "gpu.boundary" in the two-stream implementations.
func overlapStats(tr *vtime.Trace, stats map[string]float64) {
	if tr == nil {
		return
	}
	spans := tr.Spans()
	stats["trace.spans"] = float64(len(spans))
	lanes := map[string]bool{}
	for _, s := range spans {
		lanes[s.Lane] = true
	}
	var total vtime.Time
	const interior = "gpu.interior"
	if !lanes[interior] {
		stats["trace.overlap.sec"] = 0
		return
	}
	for lane := range lanes {
		if lane == interior {
			continue
		}
		ov := tr.Overlap(interior, lane)
		if ov > 0 {
			key := "trace.overlap." + sanitizeLane(lane)
			stats[key] = ov.Seconds()
		}
		total += ov
	}
	stats["trace.overlap.sec"] = total.Seconds()
	for lane := range lanes {
		stats["trace.busy."+sanitizeLane(lane)] = tr.LaneBusy()[lane].Seconds()
	}
}

func sanitizeLane(lane string) string {
	return strings.ReplaceAll(lane, " ", "_")
}
