package session

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/grid"
)

// Runner executes one segment of a session: the same contract as a
// one-shot run. Injected so this package depends on neither the
// implementation registry nor the serving layer — and the one place
// segments are scheduled: the serving layer's runner waits for a worker of
// its job pool, so the manager bounds nothing itself.
type Runner func(ctx context.Context, kind core.Kind, p core.Problem, o core.Options) (*core.Result, error)

// Event is one session lifecycle notification, fanned out to the SSE hub
// and the flight recorder by the serving layer.
type Event struct {
	Type    string `json:"type"`
	Session View   `json:"session"`
}

// Event types.
const (
	EventCreated   = "session-created"
	EventRecovered = "session-recovered"
	EventSegment   = "session-segment"
	EventPaused    = "session-paused"
	EventResumed   = "session-resumed"
	EventForked    = "session-forked"
	EventDone      = "session-done"
	EventFailed    = "session-failed"
)

// Config assembles a Manager. Store and Run are required.
type Config struct {
	Store *Store
	Run   Runner
	// IDPrefix namespaces session ids (a cluster node id), so ids stay
	// globally unique across shards.
	IDPrefix string
	// Notify receives lifecycle events, called outside manager locks.
	Notify func(Event)
	// Logger receives session lifecycle lines. Default: discard.
	Logger *slog.Logger
}

// Stats is the manager's contribution to /v1/stats.
type Stats struct {
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

// Merge folds another node's summary into the cluster view; every field
// is a count, so the view is the sum.
func (a Stats) Merge(b Stats) Stats {
	return Stats{
		Active: a.Active + b.Active, Paused: a.Paused + b.Paused,
		Done: a.Done + b.Done, Failed: a.Failed + b.Failed,
		Created: a.Created + b.Created, Recovered: a.Recovered + b.Recovered,
		Resumes: a.Resumes + b.Resumes, Forks: a.Forks + b.Forks,
		Segments: a.Segments + b.Segments,
	}
}

// Manager owns the live sessions of one node: creation, the segment run
// loops, pause/resume/fork transitions, and crash recovery from the store.
type Manager struct {
	cfg    Config
	log    *slog.Logger
	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu       sync.Mutex
	sessions map[string]*Session
	order    []string // creation order, for stable listings
	seq      int64

	created   atomic.Int64
	recovered atomic.Int64
	resumes   atomic.Int64
	forks     atomic.Int64
	segments  atomic.Int64
}

// NewManager builds a manager. Call Recover to resume interrupted sessions
// from the store, and Close to stop every run loop.
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("session: manager requires a store")
	}
	if cfg.Run == nil {
		return nil, fmt.Errorf("session: manager requires a runner")
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	//advect:nolint ctxflow the manager root context outlives any request; Close cancels it explicitly
	ctx, cancel := context.WithCancel(context.Background())
	return &Manager{
		cfg: cfg, log: cfg.Logger, ctx: ctx, cancel: cancel,
		sessions: make(map[string]*Session),
	}, nil
}

// Close stops every run loop and waits for in-flight segments to unwind.
// Interrupted sessions keep their "running" record on disk, exactly like a
// crash, so the next process recovers them.
func (m *Manager) Close() {
	m.cancel()
	m.wg.Wait()
}

// newID mints the next session id.
func (m *Manager) newID() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq++
	return fmt.Sprintf("%ssess-%06d", m.cfg.IDPrefix, m.seq)
}

// The steps between durable checkpoints and the checkpoints kept per
// session when a scenario leaves Segment or Retain zero; a request that
// wants others says so itself.
const (
	defaultSegment = 25
	defaultRetain  = 4
)

// normalize applies the defaults and validates the scenario.
func normalize(sc Scenario) (Scenario, error) {
	if sc.Problem.Initial != nil {
		return sc, fmt.Errorf("session: scenario problem must not carry an initial state")
	}
	if sc.Problem.Steps < 1 {
		return sc, fmt.Errorf("session: scenario needs at least one step")
	}
	if sc.Segment < 1 {
		sc.Segment = defaultSegment
	}
	if sc.Retain < 1 {
		sc.Retain = defaultRetain
	}
	if sc.Segment > sc.Problem.Steps {
		sc.Segment = sc.Problem.Steps
	}
	sc.Options = sc.Options.Normalize()
	return sc, nil
}

// Create starts a new root session for the scenario.
func (m *Manager) Create(sc Scenario) (*Session, error) {
	sc, err := normalize(sc)
	if err != nil {
		return nil, err
	}
	return m.launch(sc, checkpoint.Meta{}, nil, EventCreated, &m.created)
}

// CreateSeeded starts a session already advanced to a checkpointed state —
// the failover path: a gateway re-creates a dead owner's session on a
// survivor from the replicated checkpoint bytes.
func (m *Manager) CreateSeeded(sc Scenario, data []byte) (*Session, error) {
	sc, err := normalize(sc)
	if err != nil {
		return nil, err
	}
	meta, f, err := checkpoint.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("session: seed checkpoint: %w", err)
	}
	if meta.StepsDone >= int64(sc.Problem.Steps) {
		return nil, fmt.Errorf("session: seed checkpoint at step %d is past the scenario's %d steps",
			meta.StepsDone, sc.Problem.Steps)
	}
	return m.launch(sc, meta, f, EventRecovered, &m.recovered)
}

// launch is the one way a new session comes to exist. A session starting
// from a checkpoint (f non-nil: a seed or a fork point) first owns that
// state under its own fingerprint — the checkpoint may have been cut by a
// parent, which can then prune freely, or by the same session on another
// node. Then: build, persist, register, count, notify, start. A seeded
// launch (EventRecovered) is a resume of a session that ran elsewhere.
func (m *Manager) launch(sc Scenario, meta checkpoint.Meta, f *grid.Field, event string, count *atomic.Int64) (*Session, error) {
	var resumes int64
	if event == EventRecovered {
		resumes = 1
	}
	s := m.build(m.newID(), sc, meta.StepsDone, resumes)
	if f != nil {
		meta = meta.WithLineage(s.fp, sc.Options.Canonical())
		if err := m.cfg.Store.SaveCheckpoint(meta, f); err != nil {
			return nil, err
		}
		s.lastCkpt, s.fieldHash = meta.StepsDone, fieldHash(f)
	}
	if err := m.persist(s); err != nil {
		return nil, err
	}
	m.register(s)
	count.Add(1)
	m.resumes.Add(resumes)
	m.log.Info(strings.ReplaceAll(event, "-", " "), sessionArgs(s, "step", meta.StepsDone, "parent", sc.ParentFP)...)
	m.notify(event, s)
	m.start(s)
	return s, nil
}

// build constructs an in-memory session (not yet registered or persisted).
func (m *Manager) build(id string, sc Scenario, done, resumes int64) *Session {
	now := time.Now()
	return &Session{
		id: id, sc: sc, fp: sc.Fingerprint(),
		state: StateRunning, doneSteps: done, resumes: resumes,
		created: now, updated: now,
	}
}

func (m *Manager) register(s *Session) {
	m.mu.Lock()
	m.sessions[s.id] = s
	m.order = append(m.order, s.id)
	m.mu.Unlock()
}

// Get returns a session by id.
func (m *Manager) Get(id string) (*Session, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	return s, ok
}

// snapshot copies the live sessions in creation order, so callers read
// them outside the manager lock.
func (m *Manager) snapshot() []*Session {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Session, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.sessions[id])
	}
	return out
}

// List snapshots every session in creation order.
func (m *Manager) List() []View {
	sessions := m.snapshot()
	out := make([]View, 0, len(sessions))
	for _, s := range sessions {
		out = append(out, s.View())
	}
	return out
}

// Stats counts sessions by state plus the lifetime counters.
func (m *Manager) Stats() Stats {
	st := Stats{
		Created: m.created.Load(), Recovered: m.recovered.Load(),
		Resumes: m.resumes.Load(), Forks: m.forks.Load(),
		Segments: m.segments.Load(),
	}
	for _, s := range m.snapshot() {
		switch s.State() {
		case StateRunning:
			st.Active++
		case StatePaused:
			st.Paused++
		case StateDone:
			st.Done++
		case StateFailed:
			st.Failed++
		}
	}
	return st
}

// Pause requests a pause: the in-flight segment is cancelled and the
// session rolls back to its last durable checkpoint.
func (m *Manager) Pause(id string) error {
	s, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("session: unknown session %q", id)
	}
	if !s.requestPause() {
		return fmt.Errorf("session: %s is %s, not running", id, s.State())
	}
	return nil
}

// Resume restarts a paused session from its last durable checkpoint.
func (m *Manager) Resume(id string) error {
	s, ok := m.Get(id)
	if !ok {
		return fmt.Errorf("session: unknown session %q", id)
	}
	s.mu.Lock()
	if s.state != StatePaused {
		state := s.state
		s.mu.Unlock()
		return fmt.Errorf("session: %s is %s, not paused", id, state)
	}
	s.state = StateRunning
	s.pauseReq = false
	s.resumes++
	updated := s.updated
	s.updated = time.Now()
	s.mu.Unlock()
	if err := m.persist(s); err != nil {
		// No run loop was started: a session left "running" here would
		// never move again and a Pause would flag a loop that does not
		// exist. Back to paused, so the error the caller gets is the truth.
		s.mu.Lock()
		s.state, s.updated = StatePaused, updated
		s.resumes--
		s.mu.Unlock()
		return err
	}
	m.resumes.Add(1)
	m.log.Info("session resumed", sessionArgs(s)...)
	m.notify(EventResumed, s)
	m.start(s)
	return nil
}

// Fork starts a new session from a retained checkpoint of parent:
// branch-and-vary without recomputing the shared prefix. atStep < 0
// selects the newest checkpoint; opts are the child's (mutated) options;
// totalSteps extends or shortens the trajectory (parent total when 0).
func (m *Manager) Fork(parentID string, atStep int64, opts core.Options, totalSteps int64) (*Session, error) {
	parent, ok := m.Get(parentID)
	if !ok {
		return nil, fmt.Errorf("session: unknown session %q", parentID)
	}
	if atStep < 0 {
		latest, ok := m.cfg.Store.Latest(parent.fp)
		if !ok {
			return nil, fmt.Errorf("session: %s has no durable checkpoint to fork from yet", parentID)
		}
		atStep = latest
	}
	meta, f, err := m.cfg.Store.LoadCheckpoint(parent.fp, atStep)
	if err != nil {
		return nil, fmt.Errorf("session: fork point %d of %s is not retained: %w", atStep, parentID, err)
	}
	sc := parent.sc
	sc.Options = opts
	if totalSteps > 0 {
		sc.Problem.Steps = int(totalSteps)
	}
	sc.ParentFP = parent.fp
	sc.ParentStep = atStep
	sc, err = normalize(sc)
	if err != nil {
		return nil, err
	}
	if int64(sc.Problem.Steps) <= atStep {
		return nil, fmt.Errorf("session: fork total %d steps does not extend past the fork point %d",
			sc.Problem.Steps, atStep)
	}
	return m.launch(sc, meta, f, EventForked, &m.forks)
}

// Recover rescans the store and rebuilds every recorded session:
// interrupted ("running") records resume execution from their last durable
// checkpoint; paused and terminal ones come back queryable. Returns how
// many were resumed.
func (m *Manager) Recover() (int, error) {
	recs, skipped, err := m.cfg.Store.Records()
	if err != nil {
		return 0, err
	}
	for _, sk := range skipped {
		m.log.Warn("session record skipped", "file", sk.File, "error", sk.Err)
		m.reserve(strings.TrimSuffix(sk.File, ".json"))
	}
	resumed := 0
	for _, rec := range recs {
		m.reserve(rec.ID)
		s, err := m.rebuild(rec)
		if err != nil {
			m.log.Warn("session record skipped", "id", rec.ID, "error", err)
			continue
		}
		m.register(s)
		if s.State() == StateRunning {
			resumed++
			m.recovered.Add(1)
			m.resumes.Add(1)
			m.log.Info("session recovered", sessionArgs(s, "done", s.Done())...)
			m.notify(EventRecovered, s)
			m.start(s)
		}
	}
	return resumed, nil
}

// rebuild inverts a record back into a session.
func (m *Manager) rebuild(rec Record) (*Session, error) {
	kind, err := core.ParseKind(rec.Kind)
	if err != nil {
		return nil, err
	}
	sc := Scenario{
		Kind: kind, Problem: rec.Problem, Options: rec.Options,
		Segment: rec.Segment, Retain: rec.Retain,
		ParentFP: rec.ParentFP, ParentStep: rec.ParentStep,
		TraceID: rec.TraceID,
	}
	sc, err = normalize(sc)
	if err != nil {
		return nil, err
	}
	if fp := sc.Fingerprint(); fp != rec.Fingerprint {
		return nil, fmt.Errorf("recorded fingerprint %s does not match scenario (%s)", rec.Fingerprint, fp)
	}
	s := m.build(rec.ID, sc, rec.DoneSteps, rec.Resumes)
	s.state = rec.State
	s.segments = rec.Segments
	s.errMsg = rec.Error
	s.created = rec.Created
	if s.state == StateRunning {
		s.resumes++ // this recovery
	}
	return s, nil
}

// reserve keeps newID from minting id again: a recorded session owns its id
// and its file whether or not it could be rebuilt, so a new session never
// overwrites a skipped record.
func (m *Manager) reserve(id string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.seq = max(m.seq, sessSeq(id))
}

// sessSeq extracts the numeric suffix of a session id ("n1-sess-000007" →
// 7), so recovered managers mint ids beyond every recorded one.
func sessSeq(id string) int64 {
	idx := strings.LastIndexByte(id, '-')
	if idx < 0 {
		return 0
	}
	n, err := strconv.ParseInt(id[idx+1:], 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// persist writes the session's current record.
func (m *Manager) persist(s *Session) error {
	s.mu.Lock()
	rec := Record{
		ID: s.id, State: s.state,
		Kind: s.sc.Kind.String(), Problem: s.sc.Problem, Options: s.sc.Options,
		Segment: s.sc.Segment, Retain: s.sc.Retain,
		DoneSteps: s.doneSteps, Fingerprint: s.fp,
		ParentFP: s.sc.ParentFP, ParentStep: s.sc.ParentStep,
		TraceID: s.sc.TraceID, Resumes: s.resumes, Segments: s.segments,
		Error: s.errMsg, Created: s.created, Updated: s.updated,
	}
	s.mu.Unlock()
	return m.cfg.Store.SaveRecord(rec)
}

func (m *Manager) notify(typ string, s *Session) {
	if m.cfg.Notify == nil {
		return
	}
	m.cfg.Notify(Event{Type: typ, Session: s.View()})
}

func sessionArgs(s *Session, extra ...any) []any {
	args := make([]any, 0, 8+len(extra))
	args = append(args, "session", s.id, "fp", s.fp)
	if s.sc.TraceID != "" {
		args = append(args, "trace_id", s.sc.TraceID)
	}
	return append(args, extra...)
}

// start launches the session's run loop under a context of its own —
// cancelled by a pause, and with the manager's by Close — tied to the
// manager WaitGroup.
func (m *Manager) start(s *Session) {
	ctx, cancel := context.WithCancel(m.ctx)
	s.mu.Lock()
	s.cancel = cancel
	s.mu.Unlock()
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		defer cancel()
		m.loop(ctx, s)
	}()
}

// loop drives a session segment by segment until it finishes, pauses,
// fails, or the manager shuts down (which, like a crash, leaves a
// "running" record on disk for the next process to recover). Where a
// segment waits for a worker is the Runner's business: a pause or a
// shutdown reaches it there, and in the run itself, through ctx.
func (m *Manager) loop(ctx context.Context, s *Session) {
	field, t0, err := m.loadState(s)
	for err == nil && ctx.Err() == nil && !s.pauseRequested() && s.Done() < int64(s.sc.Problem.Steps) {
		field, t0, err = m.runSegment(ctx, s, field, t0)
	}
	switch paused := s.pauseRequested(); {
	case m.ctx.Err() != nil:
	case err != nil && !(paused && errors.Is(err, context.Canceled)):
		m.land(s, StateFailed, EventFailed, err)
	case paused:
		m.land(s, StatePaused, EventPaused, nil)
	default:
		m.land(s, StateDone, EventDone, nil)
	}
}

// loadState positions the loop at the session's last durable checkpoint,
// reconciling the record with what is actually retained: a crash between
// a segment finishing and its record landing rolls back to the newest
// checkpoint; no checkpoint at all restarts from step zero.
func (m *Manager) loadState(s *Session) (*grid.Field, float64, error) {
	if s.Done() == 0 {
		return nil, s.sc.Problem.T0, nil
	}
	latest, ok := m.cfg.Store.Latest(s.fp)
	if !ok {
		s.mu.Lock()
		s.doneSteps = 0
		s.mu.Unlock()
		return nil, s.sc.Problem.T0, nil
	}
	meta, f, err := m.cfg.Store.LoadCheckpoint(s.fp, latest)
	if err != nil {
		return nil, 0, fmt.Errorf("session: %s: loading checkpoint %d: %w", s.id, latest, err)
	}
	s.mu.Lock()
	s.doneSteps = meta.StepsDone
	s.lastCkpt = meta.StepsDone
	s.mu.Unlock()
	return f, meta.T0, nil
}

// runSegment integrates one segment and lands its durable checkpoint.
func (m *Manager) runSegment(ctx context.Context, s *Session, field *grid.Field, t0 float64) (*grid.Field, float64, error) {
	done := s.Done()
	seg := int64(s.sc.Segment)
	if remaining := int64(s.sc.Problem.Steps) - done; seg > remaining {
		seg = remaining
	}
	p := s.sc.Problem
	p.Steps = int(seg)
	if field != nil {
		p.Initial = field
		p.T0 = t0
	}
	start := time.Now()
	res, err := m.cfg.Run(ctx, s.sc.Kind, p, s.sc.Options)
	if err != nil {
		return field, t0, err
	}
	meta, final, err := checkpoint.FromResult(p, res)
	if err != nil {
		return field, t0, err
	}
	meta.StepsDone = done + seg
	meta = meta.WithLineage(s.fp, s.sc.Options.Canonical())
	if err := m.cfg.Store.SaveCheckpoint(meta, final); err != nil {
		return field, t0, err
	}
	m.cfg.Store.Prune(s.fp, s.sc.Retain)
	hash := fieldHash(final)
	s.mu.Lock()
	s.doneSteps = meta.StepsDone
	s.segments++
	s.lastCkpt = meta.StepsDone
	s.fieldHash = hash
	s.lastGF = res.GF
	s.updated = time.Now()
	s.mu.Unlock()
	m.segments.Add(1)
	if err := m.persist(s); err != nil {
		return final, meta.T0, err
	}
	m.log.Info("session segment", sessionArgs(s, "done", meta.StepsDone,
		"total", s.sc.Problem.Steps, "elapsed", time.Since(start))...)
	m.notify(EventSegment, s)
	return final, meta.T0, nil
}

// land moves the session to a resting state and persists it.
func (m *Manager) land(s *Session, state State, event string, cause error) {
	s.mu.Lock()
	if s.state.Terminal() {
		s.mu.Unlock()
		return
	}
	s.state = state
	if cause != nil {
		s.errMsg = cause.Error()
	}
	s.updated = time.Now()
	s.mu.Unlock()
	if err := m.persist(s); err != nil {
		m.log.Warn("session record write failed", sessionArgs(s, "error", err)...)
	}
	m.log.Info("session "+string(state), sessionArgs(s, "done", s.Done())...)
	m.notify(event, s)
}
