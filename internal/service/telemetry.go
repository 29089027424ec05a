package service

import (
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/telemetry"
)

// Telemetry is the node's one set of series: a window per quantity — job
// outcomes, queue behavior, per-type execution latency, overlap efficiency
// of traced runs, grid throughput. The rolling halves (the last
// StatsWindow) are GET /v1/stats, the SSE stream and what the
// anomaly engine's windowed rules judge; the lifetime halves are the
// counters and histograms of GET /metrics (Snapshot).
type Telemetry struct {
	window time.Duration
	start  time.Time

	outcomes  map[string]map[string]*telemetry.Window // type → outcome → counter
	depth     *telemetry.Window                       // queue depth sampled at submit/claim
	queueWait *telemetry.Window                       // seconds from submit to worker claim
	exec      map[string]*telemetry.Window            // per-type execution seconds (job types + "segment")
	frac      *telemetry.Window                       // per-job hidden-communication fraction
	comm      *telemetry.Window                       // per-job communication seconds
	hidden    *telemetry.Window                       // per-job overlapped seconds
	points    *telemetry.Window                       // per-job grid-point updates
}

// NewTelemetry sizes every window to span, split into 60 buckets (so a
// 60-second window rolls in one-second steps); start is the uptime epoch.
func NewTelemetry(start time.Time, span time.Duration, queueCap int) *Telemetry {
	bucket := span / 60
	dur := telemetry.DurationBounds()
	t := &Telemetry{
		window:    span,
		start:     start,
		outcomes:  map[string]map[string]*telemetry.Window{},
		depth:     telemetry.NewWindow(span, bucket, telemetry.LinearBounds(float64(queueCap), 16)),
		queueWait: telemetry.NewWindow(span, bucket, dur),
		exec:      map[string]*telemetry.Window{},
		frac:      telemetry.NewWindow(span, bucket, telemetry.LinearBounds(1, 20)),
		comm:      telemetry.NewWindow(span, bucket, nil),
		hidden:    telemetry.NewWindow(span, bucket, nil),
		points:    telemetry.NewWindow(span, bucket, nil),
	}
	execB := execBounds()
	for _, typ := range append(Types(), typeSegment) {
		t.exec[typ] = telemetry.NewWindow(span, bucket, execB)
		t.outcomes[typ] = map[string]*telemetry.Window{}
		for _, o := range outcomes {
			t.outcomes[typ][o] = telemetry.NewWindow(span, bucket, nil)
		}
	}
	return t
}

// Count records one outcome of one unit of work of the given type.
func (t *Telemetry) Count(now time.Time, typ, outcome string) {
	t.outcomes[typ][outcome].Observe(now, 1)
}

// RecordDepth samples the queue depth (called on submit and claim, the two
// moments it changes).
func (t *Telemetry) RecordDepth(now time.Time, depth int) {
	t.depth.Observe(now, float64(depth))
}

// RecordQueueWait records the submit→claim latency of one job.
func (t *Telemetry) RecordQueueWait(now time.Time, wait time.Duration) {
	t.queueWait.Observe(now, wait.Seconds())
}

// RecordExec records one job's execution latency under its type.
func (t *Telemetry) RecordExec(now time.Time, typ string, d time.Duration) {
	t.exec[typ].Observe(now, d.Seconds())
}

// RecordOverlap folds one traced job's overlap report into the window:
// total communication seconds, total hidden seconds, and the job's hidden
// fraction. Sums over the window therefore agree exactly with the per-job
// post-hoc reports they came from.
func (t *Telemetry) RecordOverlap(now time.Time, rep *obs.Report) {
	var comm, hidden float64
	for _, p := range rep.Total {
		comm += p.CommSec
		hidden += p.OverlapSec
	}
	t.comm.Observe(now, comm)
	t.hidden.Observe(now, hidden)
	if comm > 0 {
		t.frac.Observe(now, hidden/comm)
	}
}

// RecordPoints records the grid-point updates (n³ × steps) of one completed
// simulate job or session segment, the service-level analog of the paper's
// per-run GF metric.
func (t *Telemetry) RecordPoints(now time.Time, points float64) {
	t.points.Observe(now, points)
}

// MeanExec is the lifetime mean execution latency across all types, for
// the Retry-After estimate; before any work completes it is fallback.
func (t *Telemetry) MeanExec(fallback time.Duration) time.Duration {
	var sum float64
	var n uint64
	for _, w := range t.exec {
		c, s := w.Total()
		n, sum = n+c, sum+s
	}
	if n == 0 {
		return fallback
	}
	return time.Duration(sum / float64(n) * float64(time.Second))
}

// Snapshot assembles the /metrics document from the live gauges and the
// lifetime halves of the outcome and exec windows. An outcome that never
// happened and a type that never finished work have no series.
func (t *Telemetry) Snapshot(now time.Time, q QueueGauges, w WorkerGauges, c CacheStats) Snapshot {
	s := Snapshot{
		UptimeSec: now.Sub(t.start).Seconds(),
		Queue:     q, Workers: w, Cache: c,
		Jobs:    map[string]map[string]uint64{},
		Latency: map[string]HistogramSnapshot{},
	}
	for typ, byOutcome := range t.outcomes {
		for o, win := range byOutcome {
			if n, _ := win.Total(); n > 0 {
				if s.Jobs[typ] == nil {
					s.Jobs[typ] = map[string]uint64{}
				}
				s.Jobs[typ][o] = n
			}
		}
	}
	for typ, win := range t.exec {
		if h := histogramSnapshot(win); h.Count > 0 {
			s.Latency[typ] = h
		}
	}
	return s
}

// OverlapWindow is the rolling view of overlap efficiency across the traced
// jobs that finished inside the window.
type OverlapWindow struct {
	// Jobs is how many traced jobs contributed.
	Jobs uint64 `json:"jobs"`
	// CommSec and HiddenSec are sums over those jobs' reports.
	CommSec   float64 `json:"comm_sec"`
	HiddenSec float64 `json:"hidden_sec"`
	// Fraction is HiddenSec/CommSec — the fleet-level hidden share.
	Fraction float64 `json:"fraction"`
	// PerJob is the distribution of per-job hidden fractions.
	PerJob telemetry.Stats `json:"per_job"`
}

// TelemetryStats is the GET /v1/stats document: live gauges plus the
// rolling windows.
type TelemetryStats struct {
	// Node is the cluster node identity (Config.NodeID); empty standalone.
	// It leads the document, as it leads every event the node streams.
	Node       string                     `json:"node,omitempty"`
	Now        time.Time                  `json:"now"`
	WindowSec  float64                    `json:"window_sec"`
	Queue      QueueGauges                `json:"queue"`
	Workers    WorkerGauges               `json:"workers"`
	QueueDepth telemetry.Stats            `json:"queue_depth"`
	QueueWait  telemetry.Stats            `json:"queue_wait"`
	Exec       map[string]telemetry.Stats `json:"exec"`
	// Shed is the window of shed admissions (429 queue-full, 503 draining),
	// all types together: the series the shed-burst rule judges.
	Shed    telemetry.Stats `json:"shed"`
	Overlap OverlapWindow   `json:"overlap"`
	Points  telemetry.Stats `json:"points"`
	// PointsPerSec is window throughput: grid-point updates per second.
	PointsPerSec float64 `json:"points_per_sec"`
	// Anomalies summarizes the flight anomaly engine (nil when flight is
	// disabled): totals, per-rule counts, and the retained history.
	Anomalies *flight.AnomalyStats `json:"anomalies,omitempty"`
	// Sessions summarizes the node's resumable sessions (nil when sessions
	// are disabled): live counts by state plus lifetime segment/resume/fork
	// counters.
	Sessions *SessionStats `json:"sessions,omitempty"`
}

// Stats snapshots every window at now.
func (t *Telemetry) Stats(now time.Time, q QueueGauges, w WorkerGauges) TelemetryStats {
	s := TelemetryStats{
		Now: now, Queue: q, Workers: w, WindowSec: t.window.Seconds(),
		QueueDepth: t.depth.Stats(now), QueueWait: t.queueWait.Stats(now),
		Exec: map[string]telemetry.Stats{}, Points: t.points.Stats(now),
	}
	// Shed sums the per-type rejected counters; its rates re-derive from
	// the summed counts.
	for typ, w := range t.exec {
		s.Exec[typ] = w.Stats(now)
		r := t.outcomes[typ][outcomeRejected].Stats(now)
		s.Shed.WindowSec = r.WindowSec
		s.Shed.Count += r.Count
		s.Shed.Sum += r.Sum
		s.Shed.Max = max(s.Shed.Max, r.Max)
		s.Shed.TotalCount += r.TotalCount
		s.Shed.TotalSum += r.TotalSum
	}
	if s.Shed.Count > 0 {
		s.Shed.Mean = s.Shed.Sum / float64(s.Shed.Count)
		s.Shed.PerSec = float64(s.Shed.Count) / s.Shed.WindowSec
		s.Shed.SumPerSec = s.Shed.Sum / s.Shed.WindowSec
	}
	comm := t.comm.Stats(now)
	s.Overlap = OverlapWindow{
		Jobs: comm.Count, CommSec: comm.Sum,
		HiddenSec: t.hidden.Stats(now).Sum, PerJob: t.frac.Stats(now),
	}
	if s.Overlap.CommSec > 0 {
		s.Overlap.Fraction = s.Overlap.HiddenSec / s.Overlap.CommSec
	}
	s.PointsPerSec = s.Points.SumPerSec
	return s
}
