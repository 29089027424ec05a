package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/grid"
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

// scenario is the one conversion of a session request into its normalised
// scenario, read by create, seeded create and SessionFingerprint alike.
func (r *SessionRequest) scenario() (session.Scenario, error) {
	if r.Simulate == nil {
		return session.Scenario{}, fmt.Errorf("session requires the simulate payload")
	}
	kind, err := core.ParseKind(r.Simulate.Kind)
	if err != nil {
		return session.Scenario{}, err
	}
	return session.Scenario{
		Kind: kind, Problem: r.Simulate.problem(), Options: r.Simulate.options(),
		Segment: r.Segment, Retain: r.Retain, TraceID: r.TraceID,
	}.Normalize()
}

// SessionFingerprint computes the content-addressed identity a session
// created from req would get — the key a cluster gateway shards sessions
// by, and the prefix of its checkpoint files in the store.
func SessionFingerprint(req SessionRequest) (string, error) {
	sc, err := req.scenario()
	if err != nil {
		return "", err
	}
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

// liveSession is one session this node runs. Its status is one
// session.View, kept under mu: the API, the record on disk and the
// lifecycle events all read it from there. ID and Fingerprint in it are
// written once, before the session is shared, and read freely; so is sc.
type liveSession struct {
	sc session.Scenario

	mu       sync.Mutex
	v        session.View
	pauseReq bool
	cancel   context.CancelFunc // ends the current run loop's context; nil before the first start
}

// newLiveSession is the one constructor of a session this node runs: its
// status names this node, whatever a recovered record says — the store may
// have been written under another node id.
func (s *Server) newLiveSession(sc session.Scenario, v session.View) *liveSession {
	v.Node = s.cfg.NodeID
	return &liveSession{sc: sc, v: v}
}

// ID returns the session's identifier.
func (ls *liveSession) ID() string { return ls.v.ID }

// View snapshots the session's status: a struct copy under the mutex. This
// is the status hot path; BENCH_guards.json bounds it.
func (ls *liveSession) View() session.View {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.v
}

func (ls *liveSession) pauseRequested() bool {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return ls.pauseReq
}

// sessionCounts are the node's lifetime session counters.
type sessionCounts struct {
	created, recovered, resumes, forks, segments atomic.Int64
}

// SessionStats is the sessions' contribution to /v1/stats.
type SessionStats struct {
	Active    int   `json:"active"`
	Paused    int   `json:"paused"`
	Done      int   `json:"done"`
	Failed    int   `json:"failed"`
	Created   int64 `json:"created"`
	Recovered int64 `json:"recovered"`
	Resumes   int64 `json:"resumes"`
	Forks     int64 `json:"forks"`
	Segments  int64 `json:"segments"`
}

// sessionStats counts the node's sessions by state, beside the lifetime
// counters.
func (s *Server) sessionStats() *SessionStats {
	c := &s.sessCount
	st := &SessionStats{
		Created: c.created.Load(), Recovered: c.recovered.Load(),
		Resumes: c.resumes.Load(), Forks: c.forks.Load(), Segments: c.segments.Load(),
	}
	for _, ls := range s.sessions.List() {
		switch ls.View().State {
		case session.StateRunning:
			st.Active++
		case session.StatePaused:
			st.Paused++
		case session.StateDone:
			st.Done++
		case session.StateFailed:
			st.Failed++
		}
	}
	return st
}

// SessionsEnabled reports whether this node runs sessions.
func (s *Server) SessionsEnabled() bool { return s.sessStore != nil }

// openSessions opens the session store and recovers what it holds: every
// recorded session comes back — interrupted ("running") ones resume from
// their last durable checkpoint, paused and terminal ones are queryable
// again, each with the status its record keeps. A record that cannot be
// decoded or rebuilt is left in place and named in the log, and its id stays
// taken. A store that cannot be opened disables sessions (loudly) rather
// than the node.
func (s *Server) openSessions(dir string) {
	store, err := session.Open(dir)
	if err != nil {
		s.log.Error("sessions disabled", "dir", dir, "error", err)
		return
	}
	s.sessStore = store
	recs, skipped, err := store.Records()
	if err != nil {
		s.log.Warn("session recovery scan failed", "error", err)
		return
	}
	for _, sk := range skipped {
		s.log.Warn("session record skipped", "file", sk.File, "error", sk.Err)
		s.sessions.reserve(strings.TrimSuffix(sk.File, ".json"))
	}
	resumed := 0
	for _, rec := range recs {
		s.sessions.reserve(rec.ID)
		sc, err := rec.Scenario()
		if err != nil {
			s.log.Warn("session record skipped", "id", rec.ID, "error", err)
			continue
		}
		ls := s.newLiveSession(sc, rec.View)
		ls.v.TotalSteps = int64(sc.Problem.Steps) // absent from an older record
		running := ls.v.State == session.StateRunning
		if running {
			ls.v.Resumes++ // this recovery
		}
		v := ls.v
		s.sessions.Add(ls)
		if running {
			resumed++
			s.sessCount.recovered.Add(1)
			s.sessCount.resumes.Add(1)
			s.sessionEvent("recovered", v, "done", v.DoneSteps)
			s.start(ls)
		}
	}
	if resumed > 0 {
		s.log.Info("sessions recovered", "resumed", resumed)
	}
}

// launch is the one way a new session comes to exist. A session starting
// from a checkpoint (f non-nil: a seed or a fork point) first owns that
// state under its own fingerprint — the checkpoint may have been cut by a
// parent, which can then prune freely, or by the same session on another
// node. Then: persist, register, count, announce, start. A seeded launch
// ("recovered") is a resume of a session that ran elsewhere.
func (s *Server) launch(sc session.Scenario, meta checkpoint.Meta, f *grid.Field, event string, count *atomic.Int64) (*liveSession, error) {
	ls := s.newLiveSession(sc, sc.View(s.sessions.NewID(), meta.StepsDone, time.Now()))
	if event == "recovered" {
		ls.v.Resumes = 1
	}
	if f != nil {
		hash, err := s.sessStore.Own(sc, meta, f)
		if err != nil {
			return nil, err
		}
		ls.v.LastCheckpoint, ls.v.FieldHash = meta.StepsDone, hash
	}
	if err := s.persist(ls); err != nil {
		return nil, err
	}
	v := ls.v
	s.sessions.Add(ls)
	count.Add(1)
	s.sessCount.resumes.Add(v.Resumes)
	s.sessionEvent(event, v, "step", meta.StepsDone, "parent", sc.ParentFP)
	s.start(ls)
	return ls, nil
}

// create starts a session of sc from step zero or, given seed bytes,
// already advanced to their checkpointed state — the failover path: a
// gateway re-creates a dead owner's session on a survivor from the
// replicated checkpoint.
func (s *Server) create(sc session.Scenario, seed []byte) (*liveSession, error) {
	if len(seed) == 0 {
		return s.launch(sc, checkpoint.Meta{}, nil, "created", &s.sessCount.created)
	}
	meta, f, err := checkpoint.LoadSized(bytes.NewReader(seed), sc.Problem.N)
	if err != nil {
		return nil, fmt.Errorf("session: seed checkpoint: %w", err)
	}
	if meta.StepsDone >= int64(sc.Problem.Steps) {
		return nil, fmt.Errorf("session: seed checkpoint at step %d is past the scenario's %d steps",
			meta.StepsDone, sc.Problem.Steps)
	}
	return s.launch(sc, meta, f, "recovered", &s.sessCount.recovered)
}

// pause requests a pause: the run loop's context is cancelled — and with it
// a segment in flight or waiting for a worker — and the loop lands the
// session paused at its last durable checkpoint.
func (s *Server) pause(ls *liveSession) error {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if ls.v.State != session.StateRunning || ls.pauseReq {
		return fmt.Errorf("session: %s is %s, not running", ls.v.ID, ls.v.State)
	}
	ls.pauseReq = true
	if ls.cancel != nil {
		ls.cancel()
	}
	return nil
}

// resume restarts a paused session from its last durable checkpoint. A
// record write that fails leaves the session paused — no run loop was
// started, so "running" would be a lie — and counts no resume.
func (s *Server) resume(ls *liveSession) error {
	ls.mu.Lock()
	was := ls.v
	if was.State != session.StatePaused {
		ls.mu.Unlock()
		return fmt.Errorf("session: %s is %s, not paused", was.ID, was.State)
	}
	ls.v.State, ls.v.Resumes, ls.v.Updated = session.StateRunning, was.Resumes+1, time.Now()
	ls.pauseReq = false
	ls.mu.Unlock()
	if err := s.persist(ls); err != nil {
		ls.mu.Lock()
		ls.v.State, ls.v.Resumes, ls.v.Updated = was.State, was.Resumes, was.Updated
		ls.mu.Unlock()
		return err
	}
	s.sessCount.resumes.Add(1)
	s.sessionEvent("resumed", ls.View())
	s.start(ls)
	return nil
}

// fork starts a new session from a retained checkpoint of parent:
// branch-and-vary without recomputing the shared prefix. atStep < 0
// selects the newest checkpoint; opts are the child's options; total
// extends or shortens the trajectory (the parent's when 0).
func (s *Server) fork(parent *liveSession, atStep int64, opts core.Options, total int64) (*liveSession, error) {
	id, fp := parent.v.ID, parent.v.Fingerprint
	if atStep < 0 {
		latest, ok := s.sessStore.Latest(fp)
		if !ok {
			return nil, fmt.Errorf("session: %s has no durable checkpoint to fork from yet", id)
		}
		atStep = latest
	}
	meta, f, err := s.sessStore.LoadCheckpoint(fp, atStep)
	if err != nil {
		return nil, fmt.Errorf("session: fork point %d of %s is not retained: %w", atStep, id, err)
	}
	sc := parent.sc
	sc.Options, sc.ParentFP, sc.ParentStep = opts, fp, atStep
	if total > 0 {
		sc.Problem.Steps = int(total)
	}
	if sc, err = sc.Normalize(); err != nil {
		return nil, err
	}
	if int64(sc.Problem.Steps) <= atStep {
		return nil, fmt.Errorf("session: fork total %d steps does not extend past the fork point %d",
			sc.Problem.Steps, atStep)
	}
	return s.launch(sc, meta, f, "forked", &s.sessCount.forks)
}

// start launches the session's run loop under a context of its own —
// cancelled by a pause, or by Shutdown's stopSessions — descending from the
// server's root context and tied to the server's WaitGroup. Once a drain has
// begun nothing starts: the record stays "running", as after a crash, for
// the next process to resume.
func (s *Server) start(ls *liveSession) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	if s.draining.Load() {
		return
	}
	ctx, cancel := context.WithCancel(s.baseCtx)
	ls.cancel = cancel
	s.sessWG.Add(1)
	go func() {
		defer s.sessWG.Done()
		defer cancel()
		s.runSession(ctx, ls)
	}()
}

// stopSessions cancels every run loop and waits for them to unwind. It is
// deliberately crash-shaped: in-flight segments are cancelled, records stay
// "running" on disk, and the next process resumes them from their last
// durable checkpoint — the path an actual crash takes, exercised on every
// restart.
func (s *Server) stopSessions() {
	for _, ls := range s.sessions.List() {
		ls.mu.Lock()
		if ls.cancel != nil {
			ls.cancel()
		}
		ls.mu.Unlock()
	}
	s.sessWG.Wait()
}

// runSession drives a session segment by segment until it finishes,
// pauses, fails, or the node stops it (which leaves the record "running").
// A segment waits for a worker in runSegment; a pause or a stop reaches it
// there, and in the run itself, through ctx.
func (s *Server) runSession(ctx context.Context, ls *liveSession) {
	field, t0, err := s.sessionState(ls)
	for err == nil && ctx.Err() == nil && !ls.pauseRequested() && ls.View().DoneSteps < int64(ls.sc.Problem.Steps) {
		field, t0, err = s.sessionSegment(ctx, ls, field, t0)
	}
	switch paused := ls.pauseRequested(); {
	case ctx.Err() != nil && !paused:
	case err != nil && !(paused && errors.Is(err, context.Canceled)):
		s.settle(ls, session.StateFailed, err)
	case paused:
		s.settle(ls, session.StatePaused, nil)
	default:
		s.settle(ls, session.StateDone, nil)
	}
}

// sessionState positions the loop at the session's last durable checkpoint,
// reconciling the status with what is actually retained: a crash between a
// segment finishing and its record landing rolls back to the newest
// checkpoint; no checkpoint at all restarts from step zero.
func (s *Server) sessionState(ls *liveSession) (*grid.Field, float64, error) {
	v := ls.View()
	if v.DoneSteps == 0 {
		return nil, ls.sc.Problem.T0, nil
	}
	latest, ok := s.sessStore.Latest(v.Fingerprint)
	if !ok {
		ls.mu.Lock()
		ls.v.DoneSteps = 0
		ls.mu.Unlock()
		return nil, ls.sc.Problem.T0, nil
	}
	meta, f, err := s.sessStore.LoadCheckpoint(v.Fingerprint, latest)
	if err != nil {
		return nil, 0, fmt.Errorf("session: %s: loading checkpoint %d: %w", v.ID, latest, err)
	}
	ls.mu.Lock()
	ls.v.DoneSteps, ls.v.LastCheckpoint = meta.StepsDone, meta.StepsDone
	ls.mu.Unlock()
	return f, meta.T0, nil
}

// sessionSegment integrates one segment on the worker pool and lands it:
// the checkpoint through session.LandSegment, then the status and its
// record.
func (s *Server) sessionSegment(ctx context.Context, ls *liveSession, field *grid.Field, t0 float64) (*grid.Field, float64, error) {
	done := ls.View().DoneSteps
	p := ls.sc.Problem
	p.Steps = int(min(int64(ls.sc.Segment), int64(p.Steps)-done))
	if field != nil {
		p.Initial, p.T0 = field, t0
	}
	start := time.Now()
	res, err := s.runSegment(ctx, ls.sc.Kind, p, ls.sc.Options)
	if err != nil {
		return field, t0, err
	}
	final, t1, hash, err := s.sessStore.LandSegment(ls.sc, p, res, done+int64(p.Steps))
	if err != nil {
		return field, t0, err
	}
	ls.mu.Lock()
	ls.v.DoneSteps += int64(p.Steps)
	ls.v.LastCheckpoint, ls.v.FieldHash, ls.v.LastGF = ls.v.DoneSteps, hash, res.GF
	ls.v.Segments++
	ls.v.Updated = time.Now()
	v := ls.v
	ls.mu.Unlock()
	s.sessCount.segments.Add(1)
	if err := s.persist(ls); err != nil {
		return final, t1, err
	}
	s.sessionEvent("segment", v, "done", v.DoneSteps, "total", v.TotalSteps, "elapsed", time.Since(start))
	return final, t1, nil
}

// settle moves the session to a resting state and persists it.
func (s *Server) settle(ls *liveSession, state session.State, cause error) {
	ls.mu.Lock()
	if ls.v.State.Terminal() {
		ls.mu.Unlock()
		return
	}
	ls.v.State, ls.v.Updated = state, time.Now()
	if cause != nil {
		ls.v.Error = cause.Error()
	}
	v := ls.v
	ls.mu.Unlock()
	if err := s.persist(ls); err != nil {
		s.log.Warn("session record write failed", sessionArgs(v, "error", err)...)
	}
	s.sessionEvent(string(state), v, "done", v.DoneSteps)
}

// persist writes the session's record: its status and the problem and
// options of its scenario.
func (s *Server) persist(ls *liveSession) error {
	return s.sessStore.SaveRecord(session.Record{View: ls.View(), Problem: ls.sc.Problem, Options: ls.sc.Options})
}

// sessionEvent announces one session lifecycle transition: its log line
// (the flight ring's record of it), a "session" event on the live SSE
// stream, and — for a recovery or a resume — the anomaly engine's
// resume-loop rule.
func (s *Server) sessionEvent(event string, v session.View, extra ...any) {
	s.log.Info("session "+event, sessionArgs(v, extra...)...)
	if event == "recovered" || event == "resumed" {
		s.engine.ObserveResume(time.Now(), v.ID, v.DoneSteps)
	}
	data, err := json.Marshal(struct {
		Node    string       `json:"node,omitempty"`
		Type    string       `json:"type"`
		Session session.View `json:"session"`
	}{v.Node, "session-" + event, v})
	if err != nil {
		return
	}
	s.hub.Publish(telemetry.Event{Name: "session", Data: data})
}

func sessionArgs(v session.View, extra ...any) []any {
	args := make([]any, 0, 6+len(extra))
	args = append(args, "session", v.ID, "fp", v.Fingerprint)
	if v.TraceID != "" {
		args = append(args, "trace_id", v.TraceID)
	}
	return append(args, extra...)
}

// sessionsDisabled answers every session route on a node without a store.
func (s *Server) sessionsDisabled(w http.ResponseWriter) bool {
	if s.sessStore != nil {
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
func (s *Server) lookupSession(w http.ResponseWriter, r *http.Request, admits bool) (*liveSession, bool) {
	if s.sessionsDisabled(w) {
		return nil, false
	}
	ls, ok := s.sessions.Get(r.PathValue("id"))
	if !ok {
		WriteJSON(w, http.StatusNotFound, ErrorDoc{Error: "unknown session"})
		return nil, false
	}
	if admits && s.Draining() {
		WriteJSON(w, http.StatusServiceUnavailable, ErrorDoc{Error: ErrDraining.Error()})
		return nil, false
	}
	return ls, true
}

// writeTransition answers a session state change: 202 with the view that
// results, or 409 with the reason for refusing it.
func writeTransition(w http.ResponseWriter, ls *liveSession, err error) {
	if err != nil {
		WriteJSON(w, http.StatusConflict, ErrorDoc{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusAccepted, ls.View())
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
	var ls *liveSession
	if err == nil {
		ls, err = s.create(sc, req.Checkpoint)
	}
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: err.Error()})
		return
	}
	WriteJSON(w, http.StatusAccepted, ls.View())
}

func (s *Server) handleSessionList(w http.ResponseWriter, r *http.Request) {
	if s.sessionsDisabled(w) {
		return
	}
	sessions := s.sessions.List()
	views := make([]session.View, 0, len(sessions))
	for _, ls := range sessions {
		views = append(views, ls.View())
	}
	WriteJSON(w, http.StatusOK, map[string]any{"sessions": views})
}

func (s *Server) handleSessionStatus(w http.ResponseWriter, r *http.Request) {
	if ls, ok := s.lookupSession(w, r, false); ok {
		WriteJSON(w, http.StatusOK, ls.View())
	}
}

func (s *Server) handleSessionPause(w http.ResponseWriter, r *http.Request) {
	if ls, ok := s.lookupSession(w, r, false); ok {
		writeTransition(w, ls, s.pause(ls))
	}
}

func (s *Server) handleSessionResume(w http.ResponseWriter, r *http.Request) {
	if ls, ok := s.lookupSession(w, r, true); ok {
		writeTransition(w, ls, s.resume(ls))
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
	opts, err := fr.options(parent.sc.Options)
	if err == nil {
		steps := parent.sc.Problem.Steps
		if fr.TotalSteps > 0 {
			steps = int(fr.TotalSteps)
		}
		err = s.cfg.Limits.checkWork(steps, opts.Tasks, opts.Threads)
	}
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, ErrorDoc{Error: err.Error()})
		return
	}
	atStep := int64(-1)
	if fr.AtStep != nil {
		atStep = *fr.AtStep
	}
	child, err := s.fork(parent, atStep, opts, fr.TotalSteps)
	writeTransition(w, child, err)
}

// handleSessionCheckpoint serves a session's newest durable checkpoint as
// raw bytes (?step= selects an older retained one) — the replication
// surface a cluster gateway pulls so a session survives its owner's death.
func (s *Server) handleSessionCheckpoint(w http.ResponseWriter, r *http.Request) {
	ls, ok := s.lookupSession(w, r, false)
	if !ok {
		return
	}
	fp := ls.v.Fingerprint
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
