package service

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/session"
	"repro/internal/telemetry"
)

// SessionRequest is the body of POST /v1/sessions: a simulate payload
// whose steps are the session's whole trajectory, plus the segmentation of
// that trajectory into durable checkpoints.
type SessionRequest struct {
	Simulate *SimulateRequest `json:"simulate"`
	// Segment is the steps integrated between durable checkpoints and
	// Retain bounds the checkpoints kept; 0 selects the session package's
	// defaults.
	Segment int `json:"segment,omitempty"`
	Retain  int `json:"retain,omitempty"`
	// TraceID carries a cluster-wide correlation id across failover, so a
	// session resumed on a survivor stays one logical trace.
	TraceID string `json:"trace_id,omitempty"`
	// Checkpoint, when set (base64 in JSON), seeds the session at an
	// already-integrated step from raw checkpoint bytes — the failover
	// path: a gateway re-creates a dead owner's session on a survivor from
	// the replicated checkpoint.
	Checkpoint []byte `json:"checkpoint,omitempty"`
}

// Validate checks the session request against the node's limits.
func (r *SessionRequest) Validate(lim Limits) error {
	if r.Simulate == nil {
		return fmt.Errorf("session requires the simulate payload")
	}
	if err := r.Simulate.validate(lim); err != nil {
		return err
	}
	if r.Simulate.Steps < 1 {
		return fmt.Errorf("session needs at least one step")
	}
	if r.Simulate.Trace {
		return fmt.Errorf("sessions do not support trace (segments run untraced; use trace_id for cluster correlation)")
	}
	if r.Segment < 0 || r.Segment > r.Simulate.Steps {
		return fmt.Errorf("segment %d out of range [0, %d]", r.Segment, r.Simulate.Steps)
	}
	if r.Retain < 0 {
		return fmt.Errorf("retain %d < 0", r.Retain)
	}
	return nil
}

// scenario converts the validated request into a session scenario.
func (r *SessionRequest) scenario() (session.Scenario, error) {
	kind, err := core.ParseKind(r.Simulate.Kind)
	if err != nil {
		return session.Scenario{}, err
	}
	return session.Scenario{
		Kind: kind, Problem: r.Simulate.problem(), Options: r.Simulate.options(),
		Segment: r.Segment, Retain: r.Retain, TraceID: r.TraceID,
	}, nil
}

// SessionFingerprint computes the content-addressed identity a session
// created from req would get — the key a cluster gateway shards sessions
// by, and the prefix of its checkpoint files in the store.
func SessionFingerprint(req SessionRequest) (string, error) {
	if req.Simulate == nil {
		return "", fmt.Errorf("session requires the simulate payload")
	}
	sc, err := req.scenario()
	if err != nil {
		return "", err
	}
	sc.Options = sc.Options.Normalize()
	return sc.Fingerprint(), nil
}

// ForkRequest is the body of POST /v1/sessions/{id}/fork: where to branch
// and what to vary. Unset fields inherit the parent; pointers distinguish
// "leave alone" from an explicit zero.
type ForkRequest struct {
	// AtStep selects the retained checkpoint to branch from; nil or
	// negative selects the newest.
	AtStep *int64 `json:"at_step,omitempty"`
	// TotalSteps is the child's whole trajectory length (parent total when
	// 0); it must extend past the fork point.
	TotalSteps   int64   `json:"total_steps,omitempty"`
	Tasks        *int    `json:"tasks,omitempty"`
	Threads      *int    `json:"threads,omitempty"`
	BlockX       *int    `json:"blockx,omitempty"`
	BlockY       *int    `json:"blocky,omitempty"`
	BoxThickness *int    `json:"thickness,omitempty"`
	HaloWidth    *int    `json:"halowidth,omitempty"`
	TasksPerGPU  *int    `json:"taskspergpu,omitempty"`
	GPU          *string `json:"gpu,omitempty"`
	Verify       *bool   `json:"verify,omitempty"`
}

// options merges the fork's overrides onto the parent's options.
func (fr *ForkRequest) options(parent core.Options) (core.Options, error) {
	o := parent
	setInt := func(dst *int, src *int) {
		if src != nil {
			*dst = *src
		}
	}
	setInt(&o.Tasks, fr.Tasks)
	setInt(&o.Threads, fr.Threads)
	setInt(&o.BlockX, fr.BlockX)
	setInt(&o.BlockY, fr.BlockY)
	setInt(&o.BoxThickness, fr.BoxThickness)
	setInt(&o.HaloWidth, fr.HaloWidth)
	setInt(&o.TasksPerGPU, fr.TasksPerGPU)
	if fr.GPU != nil {
		gpu, err := core.ParseGPU(*fr.GPU)
		if err != nil {
			return o, err
		}
		o.GPU = gpu
	}
	if fr.Verify != nil {
		o.Verify = *fr.Verify
	}
	return o, nil
}

// SessionsEnabled reports whether this node runs a session manager.
func (s *Server) SessionsEnabled() bool { return s.sessions != nil }

// sessionsDisabled answers every session route on a node without a store.
func (s *Server) sessionsDisabled(w http.ResponseWriter) bool {
	if s.sessions != nil {
		return false
	}
	WriteJSON(w, http.StatusServiceUnavailable,
		ErrorDoc{Error: "sessions disabled (start the node with a session directory)"})
	return true
}

// lookupSession is the shared first step of every /v1/sessions/{id}...
// route: it finds the session the path names, or answers for it — 503 on a
// node without a store, 404 for an unknown id, and, on the routes that
// start new work (admits), 503 once the node is draining.
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request, admits bool) (*session.Session, bool) {
	if s.sessionsDisabled(w) {
		return nil, false
	}
	sess, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorDoc{Error: "unknown session"})
		return nil, false
	}
	if admits && s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, ErrorDoc{Error: ErrDraining.Error()})
		return nil, false
	}
	return sess, true
}

// writeTransition answers a session state change: 202 with the view that
// results, or 409 with the manager's reason for refusing it.
func writeTransition(w http.ResponseWriter, sess *session.Session, err error) {
	if err != nil {
		WriteJSON(w, http.StatusConflict, ErrorDoc{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusAccepted, sess.View())
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	var req SessionRequest
	if err := DecodeBody(w, r, s.cfg.Limits.SessionBodyBytes(), &req); err != nil {
		WriteBadBody(w, err)
		return
	}
	if s.Draining() {
		w.Header().Set("Retry-After", strconv.Itoa(int(s.cfg.DrainTimeout.Seconds()+0.5)))
		WriteJSON(w, http.StatusServiceUnavailable, ErrorDoc{Error: ErrDraining.Error()})
		return
	}
	if err := req.Validate(s.cfg.Limits); err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: err.Error()})
		return
	}
	sc, err := req.scenario()
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: err.Error()})
		return
	}
	var sess *session.Session
	if len(req.Checkpoint) > 0 {
		sess, err = s.sessions.CreateSeeded(sc, req.Checkpoint)
	} else {
		sess, err = s.sessions.Create(sc)
	}
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusAccepted, sess.View())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	WriteJSON(w, http.StatusOK, map[string]any{"sessions": s.sessions.List()})
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.lookupSession(w, r, false); ok {
		WriteJSON(w, http.StatusOK, sess.View())
	}
}

func (s *Server) handleSessionPause(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.lookupSession(w, r, false); ok {
		writeTransition(w, sess, s.sessions.Pause(sess.ID()))
	}
}

func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	if sess, ok := s.lookupSession(w, r, true); ok {
		writeTransition(w, sess, s.sessions.Resume(sess.ID()))
	}
}

func (s *Server) handleSessionFork(w http.ResponseWriter, r *http.Request) {
	parent, ok := s.lookupSession(w, r, true)
	if !ok {
		return
	}
	var fr ForkRequest
	if err := DecodeBody(w, r, MaxDocBytes, &fr); err != nil {
		WriteBadBody(w, err)
		return
	}
	opts, err := fr.options(parent.Scenario().Options)
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: err.Error()})
		return
	}
	atStep := int64(-1)
	if fr.AtStep != nil {
		atStep = *fr.AtStep
	}
	child, err := s.sessions.Fork(parent.ID(), atStep, opts, fr.TotalSteps)
	writeTransition(w, child, err)
}

// handleSessionCheckpoint serves a session's newest durable checkpoint as
// raw bytes (?step= selects an older retained one) — the replication
// surface a cluster gateway pulls so a session survives its owner's death.
func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) {
	sess, ok := s.lookupSession(w, r, false)
	if !ok {
		return
	}
	fp := sess.Fingerprint()
	var step int64
	if q := r.URL.Query().Get("step"); q != "" {
		n, err := strconv.ParseInt(q, 10, 64)
		if err != nil {
			WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: "bad step: " + err.Error()})
			return
		}
		step = n
	} else {
		latest, ok := s.sessStore.Latest(fp)
		if !ok {
			WriteJSON(w, http.StatusNotFound, ErrorDoc{Error: "session has no durable checkpoint yet"})
			return
		}
		step = latest
	}
	data, err := s.sessStore.CheckpointBytes(fp, step)
	if err != nil {
		WriteJSON(w, http.StatusNotFound, ErrorDoc{Error: "checkpoint not retained: " + err.Error()})
		return
	}
	w.Header().Set(SessionStepHeader, strconv.FormatInt(step, 10))
	w.Header().Set(SessionFPHeader, fp)
	WriteRaw(w, http.StatusOK, "application/octet-stream", data)
}

// Checkpoint response headers: the step the served checkpoint stands at
// and the session fingerprint its file is addressed by.
const (
	SessionStepHeader = "X-Advect-Session-Step"
	SessionFPHeader   = "X-Advect-Session-Fp"
)

// publishSession fans one session lifecycle event out to the live SSE
// stream and feeds recoveries to the anomaly engine's resume-loop rule. The
// flight ring's record of the event is the manager's log line.
func (s *Server) publishSession(ev session.Event) {
	if ev.Type == session.EventRecovered || ev.Type == session.EventResumed {
		s.engine.ObserveResume(time.Now(), ev.Session.ID, ev.Session.DoneSteps)
	}
	data, err := json.Marshal(ev)
	if err != nil {
		return
	}
	s.hub.Publish(telemetry.Event{Name: "session", Data: data})
}

// warmInts is the fixed order of the integer parameters the sweep detector
// watches (Nu follows them as the last field); warmVector's base is the
// request's non-numeric identity. Together they make "the same request
// except one stepping number" land on one track.
func warmInts(sr *SimulateRequest) [9]*int {
	return [9]*int{&sr.N, &sr.Steps, &sr.Tasks, &sr.Threads, &sr.BlockX, &sr.BlockY,
		&sr.BoxThickness, &sr.HaloWidth, &sr.TasksPerGPU}
}

func warmVector(sr *SimulateRequest) (string, []float64) {
	base := "sim|" + sr.Kind + "|" + sr.GPU
	if sr.Verify {
		base += "|v"
	}
	if sr.Trace {
		base += "|t"
	}
	ints := warmInts(sr)
	fields := make([]float64, 0, len(ints)+1)
	for _, p := range ints {
		fields = append(fields, float64(*p))
	}
	return base, append(fields, sr.Nu)
}

// applyWarmField writes a predicted value back into its request field,
// reporting false for predictions that cannot name a real request (a
// negative value, or a fractional one in an integer field).
func applyWarmField(sr *SimulateRequest, field int, v float64) bool {
	ints := warmInts(sr)
	switch {
	case v < 0 || field < 0 || field > len(ints):
		return false
	case field == len(ints):
		sr.Nu = v
	case v != math.Trunc(v) || v > math.MaxInt32:
		return false
	default:
		*ints[field] = int(v)
	}
	return true
}

// warmFromSubmit feeds one interactive simulate submission to the sweep
// detector and pre-executes whatever it predicts at background priority.
// Called after the submission has been admitted (never for background
// jobs, so warming cannot feed back into itself).
func (s *Server) warmFromSubmit(req Request) {
	if s.warmer == nil || req.Type != TypeSimulate || req.Simulate == nil {
		return
	}
	base, fields := warmVector(req.Simulate)
	for _, p := range s.warmer.Observe(base, fields) {
		next := *req.Simulate
		if !applyWarmField(&next, p.Field, p.Value) {
			s.warmer.NoteShed()
			continue
		}
		s.submitBackground(Request{Type: TypeSimulate, Simulate: &next})
	}
}

// submitBackground admits a speculative pre-execution on the queue's
// background lane. It is deliberately eager to give up — validation
// failure, draining, already cached, already in flight, foreground
// traffic waiting, or a full lane all shed the prediction (counted by the
// warmer) — because speculation must never displace interactive work.
func (s *Server) submitBackground(req Request) {
	if req.Validate(s.cfg.Limits) != nil || s.draining.Load() {
		s.warmer.NoteShed()
		return
	}
	key := req.CacheKey()
	if _, hit := s.cache.Peek(key); hit || !s.claimWarm(key) {
		s.warmer.NoteShed()
		return
	}
	now := time.Now()
	j := newJob(s.store.NewID(), req, s.baseCtx, now)
	j.background = true
	if !s.queue.TryPushBackground(j) {
		s.releaseWarm(key)
		s.warmer.NoteShed()
		return
	}
	s.store.Add(j)
	s.tele.Count(now, req.Type, outcomeSubmitted)
	s.log.Info("job submitted", jobArgs(j, "background", true)...)
	s.publishJob(j)
}

// claimWarm marks a cache key as having a background pre-execution in
// flight; a second prediction of the same point is shed instead of queued
// twice.
func (s *Server) claimWarm(key string) bool {
	s.warmMu.Lock()
	defer s.warmMu.Unlock()
	if s.warmInflight == nil {
		s.warmInflight = make(map[string]struct{})
	}
	if _, ok := s.warmInflight[key]; ok {
		return false
	}
	s.warmInflight[key] = struct{}{}
	return true
}

func (s *Server) releaseWarm(key string) {
	s.warmMu.Lock()
	delete(s.warmInflight, key)
	s.warmMu.Unlock()
}
