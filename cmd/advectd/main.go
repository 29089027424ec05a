// Command advectd is the reproduction's serving daemon: an HTTP JSON API
// that accepts simulate (functional runs), predict (performance-model
// queries), and experiment (figure regeneration) jobs, executes them on a
// bounded worker pool behind a bounded queue, and answers repeated
// requests from a content-addressed result cache.
//
// Usage:
//
//	advectd -addr :8080 -workers 4 -queue 32 -cache 512
//
// Submit a job and poll it:
//
//	curl -s localhost:8080/v1/jobs -d '{"type":"predict","predict":{"machine":"Yona","kind":"hybrid-overlap","cores":96}}'
//	curl -s localhost:8080/v1/jobs/job-000001/result
//
// Watch the fleet live: GET /v1/stats serves rolling-window telemetry
// (queue depth/wait, per-type latency quantiles, overlap efficiency,
// points/sec over the last 60 seconds) and GET /v1/stream is an SSE feed of
// job events plus a stats snapshot every second (?interval= picks another
// cadence), with a ": heartbeat" comment every 15 seconds.
// A traced simulate job's stitched Chrome trace — request lifecycle and
// per-rank runner phases on one timeline — is at GET /v1/jobs/{id}/trace.
//
// SIGINT/SIGTERM drain the service: admission stops, /healthz flips to 503
// so load balancers stop routing, in-flight jobs get -drain to finish,
// stragglers are cancelled between timesteps.
//
// The daemon logs structured job-lifecycle events (log/slog, logfmt text
// or JSON with -logjson) to stderr, and -pprof exposes the Go profiling
// endpoints under /debug/pprof/.
//
// With -sessions <dir> the daemon also runs long simulations as resumable
// sessions (POST /v1/sessions): the trajectory executes as a chain of
// checkpointed segments (the request's "segment" steps each, its "retain"
// newest kept for forking), survives process restarts by resuming from the
// last durable checkpoint in <dir>, and can be paused, resumed, or forked
// with mutated options from any retained step. A segment is a unit of work
// on the same -workers pool as every job: it waits for a free worker (never
// shed), is counted in workers.busy, points/sec and the "segment" latency
// series, and shares the pool with waiting jobs at no fixed priority.
//
// An always-on flight recorder retains the last 512 log/span/stats records
// and watches /v1/stats for anomalies — latency
// spikes, shed bursts, stragglers, and model-vs-measured overlap drift
// beyond -drift against the -model machine. GET /v1/debug/bundle exports the
// postmortem: flight ring, frozen anomaly snapshots, stats, profiles, and
// build info in one JSON document.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/flight"
	"repro/internal/service"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 2, "worker pool size (concurrent jobs and session segments)")
		queue    = flag.Int("queue", 16, "admission queue capacity (full queue returns 429)")
		cache    = flag.Int("cache", 256, "result cache entries (LRU)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
		maxN     = flag.Int("maxn", 0, "largest grid points per dimension a simulate job may request (0 = default)")
		maxStep  = flag.Int("maxsteps", 0, "largest timestep count a simulate job may request (0 = default)")
		pprofOn  = flag.Bool("pprof", false, "expose Go profiling endpoints under /debug/pprof/")
		logJSON  = flag.Bool("logjson", false, "emit logs as JSON instead of logfmt text")
		logLevel = flag.String("loglevel", "info", "minimum log level: debug, info, warn, or error")
		nodeID   = flag.String("node", "", "cluster node id: prefixes job ids and labels /healthz and /v1/stats (empty = standalone)")
		drift    = flag.Float64("drift", 0, "model-vs-measured overlap drift tolerance before an anomaly fires (0 = default)")
		model    = flag.String("model", "", "machine model the anomaly engine predicts against (empty = default)")
		sessDir  = flag.String("sessions", "", "session checkpoint directory: enables resumable sessions under /v1/sessions (empty = disabled)")
	)
	flag.Parse()

	logger, err := service.NewLogger(*logLevel, *logJSON)
	if err != nil {
		fmt.Fprintf(os.Stderr, "advectd: %v\n", err)
		os.Exit(2)
	}

	lim := service.DefaultLimits()
	if *maxN > 0 {
		lim.MaxN = *maxN
	}
	if *maxStep > 0 {
		lim.MaxSteps = *maxStep
	}
	srv := service.New(service.Config{
		Workers: *workers, QueueCap: *queue, CacheEntries: *cache,
		DrainTimeout: *drain, Limits: lim,
		Logger: logger, EnablePprof: *pprofOn,
		NodeID:      *nodeID,
		FlightRules: flight.Rules{DriftTolerance: *drift, ModelMachine: *model},
		SessionDir:  *sessDir,
	})

	// Stop accepting connections, then drain the pool.
	if err := service.ServeUntilSignal(*addr, srv.Handler(), logger, *drain+5*time.Second,
		"workers", *workers, "queue", *queue, "cache", *cache, "pprof", *pprofOn); err != nil {
		logger.Error("serve failed", "addr", *addr, "error", err)
		os.Exit(1)
	}
	if err := srv.Shutdown(); err != nil {
		logger.Error("drain failed", "error", err)
		os.Exit(1)
	}
	fmt.Println("advectd: drained cleanly")
}
