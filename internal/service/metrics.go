package service

import (
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/telemetry"
)

// latencyBuckets are the upper bounds, in seconds, of the Prometheus
// job_duration_seconds histogram. Predict jobs land in the sub-millisecond
// buckets, functional simulations in the right-hand ones; one shared layout
// keeps the series comparable across job types. The histogram is the
// lifetime half of the exec windows, whose bounds (execBounds) contain
// these.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}

// execBounds is DurationBounds ∪ latencyBuckets, sorted: fine enough for
// the /v1/stats quantiles and exact at every /metrics bucket edge.
func execBounds() []float64 {
	b := append(telemetry.DurationBounds(), latencyBuckets...)
	sort.Float64s(b)
	return slices.Compact(b)
}

// HistogramSnapshot is the JSON view of a histogram (Prometheus semantics):
// cumulative counts per upper bound, plus sum and count.
type HistogramSnapshot struct {
	Buckets []BucketCount `json:"buckets"`
	Sum     float64       `json:"sum"`
	Count   uint64        `json:"count"`
}

// BucketCount is one cumulative histogram bucket.
type BucketCount struct {
	LE    string `json:"le"` // upper bound in seconds; "+Inf" for the last
	Count uint64 `json:"count"`
}

// histogramSnapshot reads an exec window's lifetime totals at the
// latencyBuckets edges.
func histogramSnapshot(w *telemetry.Window) HistogramSnapshot {
	counts, sum := w.Cumulative(latencyBuckets)
	s := HistogramSnapshot{Sum: sum, Count: counts[len(counts)-1]}
	for i, cum := range counts {
		le := "+Inf"
		if i < len(latencyBuckets) {
			le = strconv.FormatFloat(latencyBuckets[i], 'g', -1, 64)
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: cum})
	}
	return s
}

// Job outcomes tracked per type, each a counter-only window of Telemetry.
const (
	outcomeSubmitted = "submitted"
	outcomeRejected  = "rejected" // shed: queue full (429) or draining (503)
	outcomeCached    = "cached"   // answered from the result cache
	outcomeDone      = "done"
	outcomeFailed    = "failed"
	outcomeCancelled = "cancelled"
)

var outcomes = []string{outcomeSubmitted, outcomeRejected, outcomeCached,
	outcomeDone, outcomeFailed, outcomeCancelled}

// QueueGauges is the live queue view in a snapshot.
type QueueGauges struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// WorkerGauges is the live pool view in a snapshot.
type WorkerGauges struct {
	Busy  int `json:"busy"`
	Total int `json:"total"`
	// Utilization is Busy/Total in [0, 1].
	Utilization float64 `json:"utilization"`
}

// Snapshot is the full metrics document served by /metrics: live gauges
// plus the lifetime halves of the node's windows (Telemetry.Snapshot), so a
// counter here and a rate in /v1/stats are one series.
type Snapshot struct {
	UptimeSec float64                      `json:"uptime_sec"`
	Queue     QueueGauges                  `json:"queue"`
	Workers   WorkerGauges                 `json:"workers"`
	Jobs      map[string]map[string]uint64 `json:"jobs"`
	Latency   map[string]HistogramSnapshot `json:"latency_sec"`
	Cache     CacheStats                   `json:"cache"`
	Proc      telemetry.ProcStats          `json:"proc"`
}

// Prometheus renders the snapshot in the Prometheus text exposition
// format, with every series prefixed advectd_.
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	w := telemetry.NewPromWriter(&b, "advectd")
	w.Gauge("uptime_seconds", "Seconds since the service started.", s.UptimeSec)
	w.Gauge("queue_depth", "Jobs waiting in the admission queue.", float64(s.Queue.Depth))
	w.Gauge("queue_capacity", "Admission queue capacity.", float64(s.Queue.Capacity))
	w.Gauge("workers_busy", "Workers currently executing a job.", float64(s.Workers.Busy))
	w.Gauge("workers_total", "Worker pool size.", float64(s.Workers.Total))
	w.Gauge("worker_utilization", "Fraction of workers busy.", s.Workers.Utilization)
	w.Gauge("cache_size", "Result cache entries.", float64(s.Cache.Size))
	w.Gauge("cache_capacity", "Result cache capacity.", float64(s.Cache.Capacity))

	w.Family("cache_events_total", "counter", "Result cache hit/miss/eviction counters.")
	w.Uint("cache_events_total", s.Cache.Hits, "event", "hit")
	w.Uint("cache_events_total", s.Cache.Misses, "event", "miss")
	w.Uint("cache_events_total", s.Cache.Evictions, "event", "eviction")

	w.Family("jobs_total", "counter", "Jobs by type and outcome.")
	for _, t := range sortedKeys(s.Jobs) {
		outcomes := s.Jobs[t]
		for _, o := range sortedKeys(outcomes) {
			w.Uint("jobs_total", outcomes[o], "type", t, "outcome", o)
		}
	}

	w.Family("job_duration_seconds", "histogram", "Completed-job execution latency.")
	for _, t := range sortedKeys(s.Latency) {
		h := s.Latency[t]
		for _, bc := range h.Buckets {
			w.Uint("job_duration_seconds_bucket", bc.Count, "type", t, "le", bc.LE)
		}
		w.Float("job_duration_seconds_sum", h.Sum, "type", t)
		w.Uint("job_duration_seconds_count", h.Count, "type", t)
	}
	s.Proc.WriteProm(&b, "advectd")
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
