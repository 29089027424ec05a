package telemetry

import (
	"math"
	"runtime/metrics"
	"strings"
)

// Process-health snapshot backed by runtime/metrics: the handful of
// whole-process gauges (goroutines, live heap, GC pauses) worth exporting
// from every binary next to its domain metrics. Reading is a few
// microseconds and happens only on a /metrics scrape, never on a hot path.

// runtime/metrics sample names read by ReadProc.
const (
	sampleGoroutines = "/sched/goroutines:goroutines"
	sampleHeapBytes  = "/memory/classes/heap/objects:bytes"
	sampleGCPauses   = "/gc/pauses:seconds"
)

// ProcStats is one point-in-time process-health reading.
type ProcStats struct {
	// Goroutines is the current live goroutine count.
	Goroutines int64 `json:"goroutines"`
	// HeapBytes is the bytes occupied by live + dead-not-yet-swept heap
	// objects.
	HeapBytes uint64 `json:"heap_bytes"`
	// GCPauses is the cumulative count of stop-the-world pause events.
	GCPauses uint64 `json:"gc_pauses"`
	// GCPauseP99Sec is the 99th-percentile stop-the-world pause over the
	// process lifetime (upper bucket bound of the runtime histogram).
	GCPauseP99Sec float64 `json:"gc_pause_p99_sec"`
}

// ReadProc samples the runtime metrics once.
func ReadProc() ProcStats {
	samples := []metrics.Sample{
		{Name: sampleGoroutines},
		{Name: sampleHeapBytes},
		{Name: sampleGCPauses},
	}
	metrics.Read(samples)
	var p ProcStats
	for _, s := range samples {
		switch s.Name {
		case sampleGoroutines:
			if s.Value.Kind() == metrics.KindUint64 {
				p.Goroutines = int64(s.Value.Uint64())
			}
		case sampleHeapBytes:
			if s.Value.Kind() == metrics.KindUint64 {
				p.HeapBytes = s.Value.Uint64()
			}
		case sampleGCPauses:
			if s.Value.Kind() == metrics.KindFloat64Histogram {
				p.GCPauses, p.GCPauseP99Sec = histQuantile(s.Value.Float64Histogram(), 0.99)
			}
		}
	}
	return p
}

// histQuantile returns the total event count and the qth quantile of a
// runtime histogram, reported as the upper bound of the bucket containing
// it (the runtime's own bucketing granularity).
func histQuantile(h *metrics.Float64Histogram, q float64) (uint64, float64) {
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0, 0
	}
	target := uint64(math.Ceil(float64(total) * q))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			hi := h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = h.Buckets[i] // open-ended top bucket: report its floor
			}
			return total, hi
		}
	}
	return total, h.Buckets[len(h.Buckets)-1]
}

// WriteProm renders the snapshot in the Prometheus text exposition format
// with the given series prefix (e.g. "advectd", "advectgw").
func (p ProcStats) WriteProm(b *strings.Builder, prefix string) {
	w := NewPromWriter(b, prefix)
	w.Gauge("go_goroutines", "Current goroutine count.", float64(p.Goroutines))
	w.Gauge("go_heap_bytes", "Bytes of live heap objects.", float64(p.HeapBytes))
	w.Counter("go_gc_pauses_total", "Cumulative GC stop-the-world pauses.", p.GCPauses)
	w.Gauge("go_gc_pause_p99_seconds", "99th-percentile GC pause over the process lifetime.", p.GCPauseP99Sec)
}
