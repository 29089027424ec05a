package service

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/obs"
)

// routes is the node's HTTP surface, one entry per route: the API
// reference is this list (README and DESIGN.md point here).
func (s *Server) routes() []Route {
	return []Route{
		{Pattern: "POST /v1/jobs", Doc: "submit a job (202 queued; 200 on a cache hit; 429 + Retry-After when full)", Handler: s.handleSubmit},
		{Pattern: "GET /v1/jobs", Doc: "list jobs", Handler: s.handleList},
		{Pattern: "GET /v1/jobs/{id}", Doc: "job status", Handler: s.handleStatus},
		{Pattern: "GET /v1/jobs/{id}/result", Doc: "result document (202 while pending, 500 failed, 410 cancelled)", Handler: s.handleResult},
		{Pattern: "GET /v1/jobs/{id}/trace", Doc: "Chrome trace of a traced job (this node's spans)", Handler: s.handleTrace},
		{Pattern: "GET /v1/jobs/{id}/spans", Doc: "raw span log as a trace context (what a gateway joins and harvests)", Handler: s.handleSpans},
		{Pattern: "DELETE /v1/jobs/{id}", Doc: "cancel", Handler: s.handleCancel},
		{Pattern: "POST /v1/sessions", Doc: "start a resumable checkpointed session (202)", Handler: s.handleSessionCreate},
		{Pattern: "GET /v1/sessions", Doc: "list sessions", Handler: s.handleSessionList},
		{Pattern: "GET /v1/sessions/{id}", Doc: "session status (done/total steps, checkpoint, hash)", Handler: s.handleSessionStatus},
		{Pattern: "POST /v1/sessions/{id}/pause", Doc: "pause (rolls back to the last durable checkpoint)", Handler: s.handleSessionPause},
		{Pattern: "POST /v1/sessions/{id}/resume", Doc: "resume a paused session", Handler: s.handleSessionResume},
		{Pattern: "POST /v1/sessions/{id}/fork", Doc: "branch from a retained checkpoint with mutated options", Handler: s.handleSessionFork},
		{Pattern: "GET /v1/sessions/{id}/checkpoint", Doc: "raw checkpoint bytes, newest or ?step= (cluster replication)", Handler: s.handleSessionCheckpoint},
		{Pattern: "GET /v1/stats", Doc: "rolling-window telemetry (last N seconds)", Handler: s.handleStats},
		{Pattern: "GET /v1/stream", Doc: "live SSE stream of job events and stats (?interval=)", Handler: s.handleStream},
		{Pattern: "GET /v1/kinds", Doc: "implementation catalogue", Handler: s.handleKinds},
		{Pattern: "GET /v1/experiments", Doc: "experiment catalogue", Handler: s.handleExperiments},
		{Pattern: "POST /v1/drain", Doc: "begin a graceful drain (cluster rebalance)", Handler: s.handleDrain},
		{Pattern: "GET /v1/debug/bundle", Doc: "postmortem bundle (flight ring, anomalies, profiles)", Handler: s.handleBundle},
		{Pattern: "GET /metrics", Doc: "Prometheus text (JSON with ?format=json)", Handler: s.handleMetrics},
		{Pattern: "GET /healthz", Doc: "liveness (503 while draining)", Handler: s.handleHealthz},
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req Request
	if err := DecodeBody(w, r, MaxDocBytes, &req); err != nil {
		WriteBadBody(w, err)
		return
	}
	j, err := s.Submit(req)
	switch {
	case err == nil:
		// 200 means served from the result cache, nothing else: a job a
		// worker finished before this line is still the 202 it was admitted as.
		v := j.View()
		status := http.StatusAccepted
		if v.CacheHit {
			status = http.StatusOK
		}
		WriteJSON(w, status, v)
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(int(s.RetryAfter().Seconds()+0.5)))
		WriteJSON(w, http.StatusTooManyRequests, ErrorDoc{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		// Retry-After on the drain 503 mirrors the 429 contract: a gateway
		// reads it to decide between failing over to another shard (always,
		// for a drain) and how long a standalone client should back off —
		// roughly the time the drain needs to finish and a restart to land.
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.DrainTimeout.Seconds()+0.5)))
		WriteJSON(w, http.StatusServiceUnavailable, ErrorDoc{Error: err.Error()})
	default:
		var re *RequestError
		if errors.As(err, &re) {
			WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: err.Error()})
			return
		}
		WriteJSON(w, http.StatusInternalServerError, ErrorDoc{Error: err.Error()})
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	jobs := s.store.List()
	views := make([]View, 0, len(jobs))
	for _, j := range jobs {
		views = append(views, j.View())
	}
	WriteJSON(w, http.StatusOK, map[string]any{"jobs": views})
}

// lookupJob finds the job a /v1/jobs/{id}... request names, or answers 404
// for it.
func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*Job, bool) {
	j, ok := s.store.Get(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorDoc{Error: "unknown job"})
	}
	return j, ok
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	if j, ok := s.lookupJob(w, r); ok {
		WriteJSON(w, http.StatusOK, j.View())
	}
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if doc, ok := j.Result(); ok {
		WriteRaw(w, http.StatusOK, "application/json", doc)
		return
	}
	v := j.View()
	switch v.State {
	case StateFailed:
		WriteJSON(w, http.StatusInternalServerError, ErrorDoc{Error: v.Error})
	case StateCancelled:
		WriteJSON(w, http.StatusGone, ErrorDoc{Error: "job cancelled"})
	default: // queued or running: poll again
		WriteJSON(w, http.StatusAccepted, v)
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	if !j.Cancel(time.Now()) {
		WriteJSON(w, http.StatusConflict, ErrorDoc{Error: "job already finished"})
		return
	}
	s.log.Info("job cancelled", jobArgs(j)...)
	WriteJSON(w, http.StatusOK, j.View())
}

func (s *Server) handleKinds(w http.ResponseWriter, r *http.Request) {
	type kindDoc struct {
		ID       string `json:"id"`
		Section  string `json:"section"`
		Describe string `json:"describe"`
	}
	var kinds []kindDoc
	for _, k := range append(core.Kinds(), core.WideHaloExt) {
		kinds = append(kinds, kindDoc{ID: k.String(), Section: k.Section(), Describe: k.Describe()})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"kinds": kinds})
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	type expDoc struct {
		ID       string `json:"id"`
		Title    string `json:"title"`
		PaperRef string `json:"paper_ref"`
	}
	var exps []expDoc
	for _, e := range harness.All() {
		exps = append(exps, expDoc{ID: e.ID, Title: e.Title, PaperRef: e.PaperRef})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"experiments": exps})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.MetricsSnapshot()
	WriteMetrics(w, r, snap, snap.Prometheus)
}

// handleHealthz is drain-aware: once Shutdown begins it answers 503 so load
// balancers stop routing to an instance that will refuse new jobs anyway.
// Inside a cluster the body also names the node, letting a gateway verify
// it is talking to the member it thinks it is.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	doc := map[string]any{"status": "ok"}
	if s.cfg.NodeID != "" {
		doc["node"] = s.cfg.NodeID
	}
	if s.Draining() {
		doc["status"] = "draining"
		WriteJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	WriteJSON(w, http.StatusOK, doc)
}

// handleDrain begins a graceful drain without waiting for it: admission
// stops (and /healthz flips to 503 draining) immediately, while queued and
// running jobs keep executing and stay pollable on this node until they
// finish. A cluster gateway uses this to rebalance a shard away — in-flight
// work lands normally, new traffic reroutes — before the process exits.
// The node is marked draining before the 202 is written, so the next
// request to it already sees the drain; of concurrent drains only the one
// that marked it starts Shutdown, and the rest report already_draining.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	already := s.draining.Swap(true)
	if !already {
		// The drain deliberately outlives this request: it is the process
		// shutdown path and ends when the worker pool does, so it cannot be
		// tied to the request context. A failed drain names the jobs the
		// deadline cancelled; losing that to a blank identifier would leave
		// no record of which work was cut short.
		go func() { //advect:nolint goroutinelife drain outlives the request by design and ends when the pool empties; its error is logged below
			if err := s.Shutdown(); err != nil {
				s.log.Error("drain failed", "err", err)
			}
		}()
	}
	WriteJSON(w, http.StatusAccepted, map[string]any{
		"status": "draining", "already_draining": already,
	})
}

// handleTrace serves a traced job's Chrome trace-event JSON: the
// service-level request lifecycle (RankService) and the runner's per-rank
// phases, on one timeline anchored at the submit instant. Loadable in
// ui.perfetto.dev. The trace reflects spans recorded so far, so a running
// job yields a partial (but valid) trace. It holds this node's spans only;
// a gateway serves the cluster trace of a job it routed.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	rec := j.Trace()
	if rec == nil {
		WriteJSON(w, http.StatusNotFound, ErrorDoc{
			Error: "job has no trace (submit with simulate.trace=true; cache hits carry no trace)",
		})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, rec.Spans()) // the first write sends the 200
}

// handleSpans serves a traced job's raw span log as a trace context (this
// node's epoch + spans). A gateway reads it to join the owner's spans to
// its routing spans when it serves the job's trace, and to harvest a dying
// owner's spans before it resubmits the job, so the trace shows both the
// lost attempt and the rerun.
func (s *Server) handleSpans(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	rec := j.Trace()
	if rec == nil {
		WriteJSON(w, http.StatusNotFound, ErrorDoc{Error: "job has no trace"})
		return
	}
	WriteJSON(w, http.StatusOK, rec.TraceContext(j.req.TraceID))
}

// handleStats serves the rolling-window telemetry document.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, s.StatsSnapshot())
}
