package service

import (
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// latencyBuckets are the histogram upper bounds in seconds. Predict jobs
// land in the sub-millisecond buckets, functional simulations in the
// right-hand ones; one shared layout keeps the Prometheus series
// comparable across job types.
var latencyBuckets = []float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2, 10, 60}

// Histogram is a fixed-bucket latency histogram (Prometheus semantics:
// cumulative le buckets plus sum and count).
type Histogram struct {
	counts []uint64 // one per bucket, non-cumulative; last is +Inf
	sum    float64
	count  uint64
}

func newHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, len(latencyBuckets)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(sec float64) {
	i := sort.SearchFloat64s(latencyBuckets, sec)
	h.counts[i]++
	h.sum += sec
	h.count++
}

// HistogramSnapshot is the JSON view of a histogram: cumulative counts per
// upper bound, plus sum and count.
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

func (h *Histogram) snapshot() HistogramSnapshot {
	s := HistogramSnapshot{Sum: h.sum, Count: h.count}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		le := "+Inf"
		if i < len(latencyBuckets) {
			le = strconv.FormatFloat(latencyBuckets[i], 'g', -1, 64)
		}
		s.Buckets = append(s.Buckets, BucketCount{LE: le, Count: cum})
	}
	return s
}

// Job outcomes tracked per type.
const (
	outcomeSubmitted = "submitted"
	outcomeRejected  = "rejected" // queue full (429)
	outcomeCached    = "cached"   // answered from the result cache
	outcomeDone      = "done"
	outcomeFailed    = "failed"
	outcomeCancelled = "cancelled"
)

// Metrics aggregates the service counters: job outcomes and latency
// histograms per job type. Queue, worker, and cache gauges are read live
// from their owners at snapshot time.
type Metrics struct {
	mu      sync.Mutex
	start   time.Time
	jobs    map[string]map[string]uint64 // type -> outcome -> count
	latency map[string]*Histogram        // type -> completed-job latency
}

// NewMetrics builds an empty registry.
func NewMetrics(now time.Time) *Metrics {
	return &Metrics{
		start:   now,
		jobs:    map[string]map[string]uint64{},
		latency: map[string]*Histogram{},
	}
}

// CountJob records one outcome for a job type.
func (m *Metrics) CountJob(jobType, outcome string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	o := m.jobs[jobType]
	if o == nil {
		o = map[string]uint64{}
		m.jobs[jobType] = o
	}
	o[outcome]++
}

// ObserveLatency records the execution latency of a completed job.
func (m *Metrics) ObserveLatency(jobType string, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	h := m.latency[jobType]
	if h == nil {
		h = newHistogram()
		m.latency[jobType] = h
	}
	h.Observe(d.Seconds())
}

// MeanLatency returns the mean completed-job latency across all types, for
// the Retry-After estimate; ok is false before any job completes.
func (m *Metrics) MeanLatency() (time.Duration, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var sum float64
	var n uint64
	for _, h := range m.latency {
		sum += h.sum
		n += h.count
	}
	if n == 0 {
		return 0, false
	}
	return time.Duration(sum / float64(n) * float64(time.Second)), true
}

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

// workerGauges derives the utilization from the two counts, for one pool or
// for the summed pools of a cluster.
func workerGauges(busy, total int) WorkerGauges {
	w := WorkerGauges{Busy: busy, Total: total}
	if total > 0 {
		w.Utilization = float64(busy) / float64(total)
	}
	return w
}

// Snapshot is the full metrics document served by /metrics.
type Snapshot struct {
	UptimeSec float64                      `json:"uptime_sec"`
	Queue     QueueGauges                  `json:"queue"`
	Workers   WorkerGauges                 `json:"workers"`
	Jobs      map[string]map[string]uint64 `json:"jobs"`
	Latency   map[string]HistogramSnapshot `json:"latency_sec"`
	Cache     CacheStats                   `json:"cache"`
	Proc      telemetry.ProcStats          `json:"proc"`
}

// Snapshot assembles the document from the registry and the live gauges.
func (m *Metrics) Snapshot(now time.Time, q QueueGauges, w WorkerGauges, c CacheStats) Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Snapshot{
		UptimeSec: now.Sub(m.start).Seconds(),
		Queue:     q, Workers: w, Cache: c,
		Jobs:    map[string]map[string]uint64{},
		Latency: map[string]HistogramSnapshot{},
	}
	for t, outcomes := range m.jobs {
		cp := map[string]uint64{}
		for o, n := range outcomes {
			cp[o] = n
		}
		s.Jobs[t] = cp
	}
	for t, h := range m.latency {
		s.Latency[t] = h.snapshot()
	}
	return s
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
