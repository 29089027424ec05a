package cluster

import (
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// GatewayTelemetry aggregates the gateway's rolling routing windows: how
// long submissions take to land, how many dispatch attempts they need, and
// how often the router falls back to retries, failovers, and dead-node
// reroutes. It is the gateway analog of service.Telemetry — GatewayCounters
// stay cumulative for Prometheus, everything here ages out as the window
// rolls.
type GatewayTelemetry struct {
	window time.Duration
	bucket time.Duration

	route     *telemetry.Window // accepted-submission routing latency (seconds)
	attempts  *telemetry.Window // dispatch attempts per accepted submission
	retries   *telemetry.Window // brief in-place Retry-After waits honored
	failovers *telemetry.Window // dispatch attempts abandoned for a ring successor
	reroutes  *telemetry.Window // dead-node resubmissions
	shed      *telemetry.Window // submissions rejected cluster-wide

	mu      sync.Mutex
	perNode map[string]*telemetry.Window // routing latency per accepting node
}

// NewGatewayTelemetry sizes every window to service.StatsWindow in 60
// buckets, the per-node telemetry cadence, so federated documents line up.
func NewGatewayTelemetry() *GatewayTelemetry {
	span := service.StatsWindow
	bucket := span / 60
	dur := telemetry.DurationBounds()
	return &GatewayTelemetry{
		window:    span,
		bucket:    bucket,
		route:     telemetry.NewWindow(span, bucket, dur),
		attempts:  telemetry.NewWindow(span, bucket, telemetry.LinearBounds(8, 8)),
		retries:   telemetry.NewWindow(span, bucket, nil),
		failovers: telemetry.NewWindow(span, bucket, nil),
		reroutes:  telemetry.NewWindow(span, bucket, nil),
		shed:      telemetry.NewWindow(span, bucket, nil),
		perNode:   map[string]*telemetry.Window{},
	}
}

// RecordRoute records one accepted submission: end-to-end routing latency,
// the node that took it, and how many dispatches it cost.
func (t *GatewayTelemetry) RecordRoute(now time.Time, node string, d time.Duration, attempts int) {
	t.route.Observe(now, d.Seconds())
	t.attempts.Observe(now, float64(attempts))
	t.mu.Lock()
	w, ok := t.perNode[node]
	if !ok {
		w = telemetry.NewWindow(t.window, t.bucket, telemetry.DurationBounds())
		t.perNode[node] = w
	}
	t.mu.Unlock()
	w.Observe(now, d.Seconds())
}

// RecordRetry counts one brief in-place Retry-After wait.
func (t *GatewayTelemetry) RecordRetry(now time.Time) {
	t.retries.Observe(now, 1)
}

// RecordFailover counts one dispatch attempt abandoned for a ring
// successor.
func (t *GatewayTelemetry) RecordFailover(now time.Time) {
	t.failovers.Observe(now, 1)
}

// RecordReroute counts one fingerprint resubmitted after a node death.
func (t *GatewayTelemetry) RecordReroute(now time.Time) {
	t.reroutes.Observe(now, 1)
}

// RecordShed counts one submission rejected cluster-wide.
func (t *GatewayTelemetry) RecordShed(now time.Time) {
	t.shed.Observe(now, 1)
}

// GatewayWindowStats is the rolling-window half of the gateway metrics
// document.
type GatewayWindowStats struct {
	WindowSec float64 `json:"window_sec"`
	// Route is the routing-latency distribution of accepted submissions;
	// RoutePerNode splits it by the node that accepted.
	Route        telemetry.Stats            `json:"route"`
	RoutePerNode map[string]telemetry.Stats `json:"route_per_node"`
	// Attempts is the dispatches-per-accepted-submission distribution
	// (mean 1 = every owner took its job first try).
	Attempts  telemetry.Stats `json:"attempts"`
	Retries   telemetry.Stats `json:"retries"`
	Failovers telemetry.Stats `json:"failovers"`
	Reroutes  telemetry.Stats `json:"reroutes"`
	Shed      telemetry.Stats `json:"shed"`
}

// Stats snapshots every window at now.
func (t *GatewayTelemetry) Stats(now time.Time) GatewayWindowStats {
	s := GatewayWindowStats{RoutePerNode: map[string]telemetry.Stats{}}
	s.WindowSec = t.window.Seconds()
	s.Route = t.route.Stats(now)
	s.Attempts = t.attempts.Stats(now)
	s.Retries = t.retries.Stats(now)
	s.Failovers = t.failovers.Stats(now)
	s.Reroutes = t.reroutes.Stats(now)
	s.Shed = t.shed.Stats(now)
	t.mu.Lock()
	for node, w := range t.perNode {
		s.RoutePerNode[node] = w.Stats(now)
	}
	t.mu.Unlock()
	return s
}

// GatewayMetrics is the gateway GET /metrics document (?format=json): the
// cumulative routing counters, the rolling windows, and process health.
type GatewayMetrics struct {
	Now      time.Time           `json:"now"`
	Counters GatewayCounters     `json:"counters"`
	Window   GatewayWindowStats  `json:"window"`
	InFlight int                 `json:"in_flight"`
	Proc     telemetry.ProcStats `json:"proc"`
}

// Metrics assembles the gateway metrics document.
func (r *Router) Metrics(now time.Time) GatewayMetrics {
	return GatewayMetrics{
		Now:      now,
		Counters: r.Counters(),
		Window:   r.tele.Stats(now),
		InFlight: r.live(r.jobs),
		Proc:     telemetry.ReadProc(),
	}
}

// Prometheus renders the gateway metrics in the Prometheus text exposition
// format, every series prefixed advectgw_.
func (m GatewayMetrics) Prometheus() string {
	var b strings.Builder
	w := telemetry.NewPromWriter(&b, "advectgw")
	w.Counter("submits_total", "Submissions accepted somewhere in the cluster.", m.Counters.Submits)
	w.Counter("failovers_total", "Submissions that left the owner shard for a ring successor.", m.Counters.Failovers)
	w.Counter("brief_retries_total", "Short Retry-After hints honored on the owner in place.", m.Counters.BriefRetries)
	w.Counter("reroutes_total", "Fingerprints re-submitted after a node death.", m.Counters.Reroutes)
	w.Counter("deduped_total", "Dead-node jobs aliased onto an in-flight twin.", m.Counters.Deduped)
	w.Counter("shed_total", "Submissions rejected cluster-wide.", m.Counters.Shed)
	w.Gauge("in_flight_jobs", "Accepted jobs not yet observed terminal.", float64(m.InFlight))

	w.Family("route_latency_seconds", "gauge", "Routing latency of accepted submissions over the window.")
	w.Float("route_latency_seconds", m.Window.Route.P50, "quantile", "0.5")
	w.Float("route_latency_seconds", m.Window.Route.P95, "quantile", "0.95")
	w.Float("route_latency_seconds", m.Window.Route.P99, "quantile", "0.99")
	w.Gauge("routes_per_sec", "Accepted submissions per second over the window.", m.Window.Route.PerSec)
	w.Gauge("route_attempts_mean", "Mean dispatch attempts per accepted submission over the window.", m.Window.Attempts.Mean)
	w.Gauge("retries_per_sec", "Brief in-place retries per second over the window.", m.Window.Retries.PerSec)
	w.Gauge("failovers_per_sec", "Failovers per second over the window.", m.Window.Failovers.PerSec)
	w.Gauge("reroutes_per_sec", "Dead-node reroutes per second over the window.", m.Window.Reroutes.PerSec)

	w.Family("node_route_p99_seconds", "gauge", "Per-node p99 routing latency over the window.")
	nodes := make([]string, 0, len(m.Window.RoutePerNode))
	for node := range m.Window.RoutePerNode {
		nodes = append(nodes, node)
	}
	sort.Strings(nodes)
	for _, node := range nodes {
		w.Float("node_route_p99_seconds", m.Window.RoutePerNode[node].P99, "node", node)
	}
	m.Proc.WriteProm(&b, "advectgw")
	return b.String()
}
