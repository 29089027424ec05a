package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// Config sizes the service. The zero value selects the defaults.
type Config struct {
	// Workers is the execution pool size: concurrent jobs and session
	// segments together. Default 2.
	Workers int
	// QueueCap bounds the admission queue; a full queue rejects with 429.
	// Default 16.
	QueueCap int
	// CacheEntries bounds the result cache. Default 256.
	CacheEntries int
	// DrainTimeout bounds how long Shutdown waits for queued and running
	// jobs before cancelling them. Default 30s.
	DrainTimeout time.Duration
	// Limits bounds what a single request may ask for.
	Limits Limits
	// Logger receives structured job-lifecycle events (submit, start,
	// finish, shed, cancel, drain), each carrying the job ID and type.
	// Default: discard.
	Logger *slog.Logger
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// NodeID names this instance inside a cluster. When set, job and
	// session ids are prefixed with it (so ids stay globally unique across
	// shards), and the node names itself with it in /healthz, /v1/stats,
	// its job and session views and every event it streams, so a gateway
	// relays its answers as they are. Empty means standalone (no prefix,
	// no node field).
	NodeID string
	// FlightRules configures the anomaly engine; the zero value selects
	// the defaults documented on flight.Rules.
	FlightRules flight.Rules
	// SessionDir enables resumable sessions: the directory holding the
	// checkpoint store and session records (POST /v1/sessions). Empty
	// disables sessions (the routes answer 503). A restarted node rescans
	// the directory and resumes interrupted sessions automatically.
	// Segments run on the Workers pool like every other job.
	SessionDir string
}

// The cadences a node and a gateway share. None is a setting: a subscriber
// picks its own stats cadence with ?interval=, and a 15s heartbeat sits well
// inside the 60s idle timeout of common proxies.
const (
	// StatsWindow is the span of the rolling telemetry windows behind
	// GET /v1/stats and the SSE stream, a node's and a gateway's alike.
	StatsWindow = 60 * time.Second
	// StreamInterval is the default cadence of stats events on
	// GET /v1/stream.
	StreamInterval = time.Second
	// HeartbeatInterval is the cadence of ": heartbeat" SSE comment lines
	// on idle /v1/stream connections, keeping proxies from severing quiet
	// subscribers.
	HeartbeatInterval = 15 * time.Second
)

func (c Config) withDefaults() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueCap < 1 {
		c.QueueCap = 16
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Limits == (Limits{}) {
		c.Limits = DefaultLimits()
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	return c
}

// Server assembles the stages: handlers admit jobs into the queue, the
// pool executes them, the store and cache deliver results, and the
// telemetry windows watch all of it. Construct with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	cfg    Config
	log    *slog.Logger
	queue  *Queue
	cache  *Cache
	tele   *Telemetry
	hub    *telemetry.Hub
	pool   *Pool
	mux    *http.ServeMux
	flight *flight.Recorder
	engine *flight.Engine

	// store and sessions hold the node's live work, jobs and sessions, in
	// one registry type. sessStore is the sessions' durable side (nil when
	// Config.SessionDir is empty: sessions disabled) and sessWG tracks their
	// run loops.
	store     *registry[*Job]
	sessions  *registry[*liveSession]
	sessStore *session.Store
	sessWG    sync.WaitGroup
	sessCount sessionCounts

	baseCtx    context.Context    // parent of every job and session run loop context
	cancelJobs context.CancelFunc // fired when the drain deadline passes
	draining   atomic.Bool
}

// New builds and starts a server (workers spin up immediately).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	//advect:nolint ctxflow the server root context outlives any request; drain cancels it explicitly
	ctx, cancel := context.WithCancel(context.Background())
	// The flight recorder tees the node's own logger: a job or session
	// transition enters the ring once, as its log line, beside the
	// span/stats/anomaly records; the engine judges traced jobs and the
	// telemetry windows, surfacing firings on the live stream and freezing
	// the ring for the postmortem bundle.
	rec := flight.NewRecorder(flight.DefaultEvents)
	s := &Server{
		cfg:        cfg,
		log:        slog.New(flight.TeeHandler(rec, cfg.Logger.Handler())),
		store:      newRegistry[*Job](cfg.NodeID, "job"),
		sessions:   newRegistry[*liveSession](cfg.NodeID, "sess"),
		queue:      NewQueue(cfg.QueueCap),
		cache:      NewCache(cfg.CacheEntries),
		tele:       NewTelemetry(time.Now(), StatsWindow, cfg.QueueCap),
		hub:        telemetry.NewHub(),
		flight:     rec,
		engine:     flight.NewEngine(cfg.FlightRules, rec),
		baseCtx:    ctx,
		cancelJobs: cancel,
	}
	s.engine.Notify(s.publishAnomaly)
	if cfg.SessionDir != "" {
		s.openSessions(cfg.SessionDir)
	}
	s.pool = NewPool(cfg.Workers, s.queue, s.runJob)
	s.mux = Mount(s.routes(), cfg.EnablePprof)
	go s.sweepLoop()
	return s
}

// publishAnomaly surfaces one engine firing: a warning on the node log
// (which the tee handler folds into the flight ring, the firing's one ring
// record, before the engine freezes it) and an "anomaly" event on the live
// SSE stream.
func (s *Server) publishAnomaly(a flight.Anomaly) {
	s.log.Warn("anomaly detected", "rule", a.Rule, "job", a.JobID,
		"trace_id", a.TraceID, "value", a.Value, "bound", a.Bound,
		"detail", a.Message)
	data, err := json.Marshal(struct {
		Node string `json:"node,omitempty"`
		flight.Anomaly
	}{s.cfg.NodeID, a})
	if err != nil {
		return
	}
	s.hub.Publish(telemetry.Event{Name: "anomaly", Data: data})
}

// flightSweepInterval is the cadence of the anomaly engine's windowed-rule
// evaluation; every statsEveryNSweeps-th sweep also lands a stats record
// in the flight ring.
const (
	flightSweepInterval = time.Second
	statsEveryNSweeps   = 15
)

// sweepLoop periodically hands the windowed anomaly rules the exec and shed
// windows of the /v1/stats document and drops a stats heartbeat into the
// flight ring, until the server's root context is cancelled at the end of a
// drain.
func (s *Server) sweepLoop() {
	tick := time.NewTicker(flightSweepInterval)
	defer tick.Stop()
	n := 0
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case now := <-tick.C:
			q, w := s.gauges()
			st := s.tele.Stats(now, q, w)
			s.engine.Sweep(now, st.Exec, st.Shed)
			n++
			if n%statsEveryNSweeps == 0 {
				s.flight.Stats(now, fmt.Sprintf("queue %d/%d busy %d/%d",
					q.Depth, q.Capacity, w.Busy, w.Total))
			}
		}
	}
}

// jobArgs assembles the shared slog attributes of a job's lifecycle lines:
// job id, type, and — when the job belongs to a cluster-wide trace — its
// trace id, so flight-recorder log records correlate with traces.
func jobArgs(j *Job, extra ...any) []any {
	args := make([]any, 0, 6+len(extra))
	args = append(args, "job", j.id, "type", j.req.Type)
	if j.req.TraceID != "" {
		args = append(args, "trace_id", j.req.TraceID)
	}
	return append(args, extra...)
}

// Handler returns the HTTP API.
func (s *Server) Handler() http.Handler { return s.mux }

// Submit validates and admits a request, serving it from the result cache
// when possible. It returns the job and, on rejection, a non-nil error:
// ErrQueueFull (429) or ErrDraining (503).
func (s *Server) Submit(req Request) (*Job, error) {
	if err := req.Validate(s.cfg.Limits); err != nil {
		return nil, &RequestError{Err: err}
	}
	if !req.Traced() || !obs.ValidTraceID(req.TraceID) {
		req.TraceID = ""
	}
	now := time.Now()
	if s.draining.Load() {
		s.tele.Count(now, req.Type, outcomeRejected)
		args := []any{"type", req.Type, "reason", "draining"}
		if req.TraceID != "" {
			args = append(args, "trace_id", req.TraceID)
		}
		s.log.Warn("job shed", args...)
		return nil, ErrDraining
	}
	j := newJob(s.store.NewID(), req, s.baseCtx, now)
	j.node = s.cfg.NodeID
	lookup := j.rec.Begin(obs.RankService, -1, obs.PhaseCacheLookup, "")
	doc, hit := s.cache.Get(j.cacheKey)
	lookup.End()
	if hit {
		// A cache hit never ran under this job's recorder, so the stitched
		// trace would be service-only noise; drop it.
		j.rec = nil
		j.completeFromCache(doc, now)
		s.store.Add(j)
		s.tele.Count(now, req.Type, outcomeSubmitted)
		s.tele.Count(now, req.Type, outcomeCached)
		s.log.Info("job submitted", jobArgs(j, "cache_hit", true)...)
		s.publishJob(j)
		return j, nil
	}
	// Stamped before the push: once queued, the job belongs to whichever
	// worker claims it, and runJob reads queuedAt and appends to rec.
	j.queuedAt = j.rec.Clock()
	j.rec.Add(obs.RankService, -1, obs.PhaseHTTPReceive, "", 0, j.queuedAt)
	if !s.queue.TryPush(j) {
		s.tele.Count(now, req.Type, outcomeRejected)
		s.log.Warn("job shed", jobArgs(j, "reason", "queue full",
			"queue_depth", s.queue.Depth())...)
		return nil, ErrQueueFull
	}
	s.store.Add(j)
	s.tele.Count(now, req.Type, outcomeSubmitted)
	s.tele.RecordDepth(now, s.queue.Depth())
	s.log.Info("job submitted", jobArgs(j, "cache_hit", false)...)
	s.publishJob(j)
	return j, nil
}

// publishJob emits a job lifecycle event on the live stream, led by the
// node's name as every event this node publishes is. The flight ring's
// record of the transition is the log line its caller writes.
func (s *Server) publishJob(j *Job) {
	v := j.View()
	data, err := json.Marshal(struct {
		Node  string `json:"node,omitempty"`
		ID    string `json:"id"`
		Type  string `json:"type"`
		State State  `json:"state"`
	}{v.Node, v.ID, v.Type, v.State})
	if err != nil {
		return
	}
	s.hub.Publish(telemetry.Event{Name: "job", Data: data})
}

// runJob is the worker loop body, the one path every unit of work takes —
// a job or a session segment: claim, execute under the job context, land.
func (s *Server) runJob(j *Job) {
	claimed := time.Now()
	if !j.claim(claimed) {
		// Cancelled while queued: the job never ran, so it gets no exec
		// span and feeds no latency window — only the outcome counter and
		// the terminal-state event the poller and the stream both see.
		s.tele.Count(claimed, j.req.Type, outcomeCancelled)
		s.log.Info("job skipped", jobArgs(j, "state", j.State(), "reason", "cancelled while queued")...)
		s.publishJob(j)
		return
	}
	if j.req.segment == nil {
		j.rec.Add(obs.RankService, -1, obs.PhaseQueueWait, "", j.queuedAt, j.rec.Clock())
		s.tele.RecordQueueWait(claimed, claimed.Sub(j.submitted))
		s.tele.RecordDepth(claimed, s.queue.Depth())
		s.publishJob(j)
	}
	s.log.Info("job started", jobArgs(j)...)
	start := time.Now()
	exec := j.rec.Begin(obs.RankService, -1, obs.PhaseWorkerExec, "")
	doc, rep, err := execute(j.ctx, j.req, j.rec, j.id)
	exec.End()
	s.land(j, doc, rep, err, time.Since(start))
}

// land brings a unit of work that ran to rest, and is the one place that
// decides what each kind of work feeds:
//
//   - a job: the result cache, the outcome window, the exec / points /
//     overlap windows and the anomaly engine (observe), and a job event on
//     the stream;
//   - a session segment: the "segment" outcome and exec windows and the
//     points window — never the cache, and no job event (its session
//     announces the segment); its result and error go back to the
//     session's run loop waiting in runSegment.
//
// The terminal state is published last: a client that has seen it may read
// /v1/stats, /metrics, the debug bundle or resubmit at once, and must find
// its own work counted, logged in the flight ring and its result cached.
func (s *Server) land(j *Job, doc json.RawMessage, rep *obs.Report, err error, elapsed time.Duration) {
	now := time.Now()
	seg := j.req.segment
	state, outcome, level, errMsg := StateDone, outcomeDone, slog.LevelInfo, ""
	if err != nil {
		state, outcome, level, errMsg = StateFailed, outcomeFailed, slog.LevelError, err.Error()
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			state, outcome, level = StateCancelled, outcomeCancelled, slog.LevelInfo
		}
	}
	s.tele.Count(now, j.req.Type, outcome)
	if err == nil {
		if seg == nil {
			s.cache.Put(j.cacheKey, doc)
		}
		s.observe(now, j, rep, elapsed)
	}
	args := jobArgs(j, "state", state, "duration", elapsed)
	if err != nil {
		args = append(args, "error", err)
	}
	s.log.Log(j.ctx, level, "job finished", args...)
	j.finish(state, doc, errMsg, now)
	if seg != nil {
		seg.err = err
		close(seg.done)
		return
	}
	s.publishJob(j)
}

// observe feeds one successfully finished job or segment to
// its windows: the exec window of its type, the grid-point updates of work
// that integrated a grid, and — for a traced run — the overlap windows, a
// span record in the flight ring and the engine's straggler and drift
// rules, all from rep, the one report the run built and its result embeds.
func (s *Server) observe(now time.Time, j *Job, rep *obs.Report, elapsed time.Duration) {
	typ := j.req.Type
	s.tele.RecordExec(now, typ, elapsed)
	sr := j.req.Simulate
	if seg := j.req.segment; seg != nil {
		s.tele.RecordPoints(now, float64(seg.p.N.Volume())*float64(seg.p.Steps))
	} else if typ == TypeSimulate {
		n := float64(sr.N)
		s.tele.RecordPoints(now, n*n*n*float64(sr.Steps))
	}
	if rep == nil {
		return
	}
	// Only a simulate job is traced, so sr is its request.
	s.tele.RecordOverlap(now, rep)
	s.flight.Span(now, j.id, j.req.TraceID,
		fmt.Sprintf("%d spans over %d ranks", rep.Spans, len(rep.Ranks)))
	s.engine.ObserveJob(now, flight.JobSample{JobID: j.id, TraceID: j.req.TraceID, Report: rep,
		Kind: sr.Kind, N: sr.N, Tasks: sr.Tasks, Threads: sr.Threads})
}

// runSegment runs one session segment as a unit of work like any other: it
// waits for the next free pool worker (never shed, bounded by
// Config.Workers, counted in workers.busy), runs under execute's panic
// barrier and a job context descending from the session's, and lands
// through land — then hands its result back here.
func (s *Server) runSegment(ctx context.Context, kind core.Kind, p core.Problem, o core.Options) (*core.Result, error) {
	seg := &segment{kind: kind, p: p, o: o, done: make(chan struct{})}
	j := newJob(s.store.NewID(), Request{Type: typeSegment, segment: seg}, ctx, time.Now())
	select {
	case s.queue.seg <- j:
	case <-ctx.Done():
		j.cancel()
		return nil, ctx.Err()
	}
	<-seg.done
	return seg.res, seg.err
}

// RetryAfter estimates how long a rejected client should wait: the queue
// is full, so roughly one queue's worth of work per pool, using the mean
// execution latency (1s before any job completes), clamped to [1, 60]
// seconds.
func (s *Server) RetryAfter() time.Duration {
	mean := s.tele.MeanExec(time.Second)
	wait := time.Duration(float64(mean) * float64(s.queue.Depth()+1) / float64(s.pool.Workers()))
	return min(max(wait, time.Second), time.Minute)
}

// gauges reads the live queue and pool state behind both snapshots.
func (s *Server) gauges() (QueueGauges, WorkerGauges) {
	w := WorkerGauges{Busy: s.pool.Busy(), Total: s.pool.Workers()}
	if w.Total > 0 {
		w.Utilization = float64(w.Busy) / float64(w.Total)
	}
	return QueueGauges{Depth: s.queue.Depth(), Capacity: s.queue.Cap()}, w
}

// MetricsSnapshot assembles the current metrics document, including a
// fresh process-health reading.
func (s *Server) MetricsSnapshot() Snapshot {
	q, w := s.gauges()
	snap := s.tele.Snapshot(time.Now(), q, w, s.cache.Stats())
	snap.Proc = telemetry.ReadProc()
	return snap
}

// StatsSnapshot assembles the rolling-window telemetry document.
func (s *Server) StatsSnapshot() TelemetryStats {
	q, w := s.gauges()
	st := s.tele.Stats(time.Now(), q, w)
	st.Node = s.cfg.NodeID
	a := s.engine.Anomalies()
	st.Anomalies = &a
	if s.sessStore != nil {
		st.Sessions = s.sessionStats()
	}
	return st
}

// Shutdown drains the service: admission stops (new submissions get 503),
// queued and running jobs are given the drain timeout to finish, and any
// still running at the deadline are cancelled through their contexts (the
// implementations stop between timesteps). It returns nil on a clean
// drain, or an error naming the jobs that had to be cancelled.
func (s *Server) Shutdown() error {
	s.draining.Store(true)
	s.stopSessions()
	s.queue.Close()
	s.log.Info("drain started", "timeout", s.cfg.DrainTimeout)
	done := make(chan struct{})
	go func() {
		s.pool.Wait()
		close(done)
	}()
	select {
	case <-done:
		s.cancelJobs()
		s.hub.Close()
		s.log.Info("drain finished", "clean", true)
		return nil
	case <-time.After(s.cfg.DrainTimeout):
		s.cancelJobs()
		<-done
		s.hub.Close()
		s.log.Warn("drain finished", "clean", false, "timeout", s.cfg.DrainTimeout)
		return fmt.Errorf("service: drain deadline %v exceeded; in-flight jobs were cancelled", s.cfg.DrainTimeout)
	}
}

// Draining reports whether a drain has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// ErrQueueFull is returned by Submit when the admission queue is full; the
// HTTP layer turns it into 429 with a Retry-After header.
var ErrQueueFull = errors.New("service: queue full")

// ErrDraining is returned by Submit once shutdown has begun (503).
var ErrDraining = errors.New("service: shutting down")

// RequestError marks a malformed request (400).
type RequestError struct{ Err error }

func (e *RequestError) Error() string { return e.Err.Error() }
func (e *RequestError) Unwrap() error { return e.Err }
