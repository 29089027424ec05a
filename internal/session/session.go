// Package session turns one-shot simulation jobs into resumable service
// objects. The paper's GPU-resident scenario assumes "a computation might
// run for hours between CPU-GPU checkpoints" (§IV-E); here that run is a
// session: a long scenario executed as a chain of checkpointed segments
// (every K steps, checkpoint.FromResult into a content-addressed store
// keyed by the canonical fingerprint + step), which can be paused, resumed,
// forked from any retained checkpoint with mutated options, and — because
// every segment boundary is durable — survives a process restart: on
// startup the store is rescanned and interrupted sessions continue from
// their last durable segment, bit-for-bit equal to an uninterrupted run.
//
// The package also holds the speculative sweep warmer (warmer.go), which
// shares nothing with the store: a detector that watches submitted
// requests for stepped-parameter patterns and predicts the next points so
// idle workers can pre-execute them at background priority.
package session

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
)

// State is a session's position in its lifecycle.
type State string

const (
	StateRunning State = "running"
	StatePaused  State = "paused"
	StateDone    State = "done"
	StateFailed  State = "failed"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool { return s == StateDone || s == StateFailed }

// Scenario describes the full trajectory a session integrates: a problem
// (Steps is the total), the options it runs under, and the segmentation of
// the work into durable checkpoints. Problem.Initial must be nil — a
// session's state lives in its checkpoints, not in the scenario — which
// keeps the scenario exactly round-trippable through its record for crash
// recovery.
type Scenario struct {
	Kind    core.Kind
	Problem core.Problem
	Options core.Options

	// Segment is the number of steps integrated between durable
	// checkpoints (0 selects defaultSegment).
	Segment int
	// Retain bounds the checkpoints kept per session; older ones are
	// pruned, newest kept (0 selects defaultRetain).
	Retain int

	// ParentFP and ParentStep record fork lineage: the fingerprint of the
	// parent session and the checkpointed step the fork branched from.
	// Empty for root sessions.
	ParentFP   string
	ParentStep int64

	// TraceID is an optional cluster-wide correlation id propagated across
	// failover, so one logical session stays one trace.
	TraceID string
}

// Fingerprint returns the session's content-addressed identity. Root
// sessions reuse the canonical run fingerprint (two sessions asking for
// the same computation share checkpoints); forks fold in their branch
// point so a fork is never confused with a root run of its mutated
// scenario.
func (sc Scenario) Fingerprint() string {
	fp := core.Fingerprint(sc.Kind, sc.Problem, sc.Options)
	if sc.ParentFP == "" {
		return fp
	}
	sum := sha256.Sum256([]byte(fp + "|fork|" + sc.ParentFP + ":" + strconv.FormatInt(sc.ParentStep, 10)))
	return hex.EncodeToString(sum[:])
}

// Session is one resumable simulation moving through segments. All mutable
// fields are guarded by mu; the identity fields (id, sc, fp) are set once
// at construction and read freely.
type Session struct {
	id string
	sc Scenario
	fp string

	mu        sync.Mutex
	state     State
	doneSteps int64
	segments  int64 // segments completed over the session's lifetime
	resumes   int64 // recoveries + explicit resumes
	errMsg    string
	created   time.Time
	updated   time.Time
	fieldHash string // sha256 of the interior at the last durable checkpoint
	lastCkpt  int64  // step of the last durable checkpoint
	lastGF    float64

	pauseReq bool
	cancel   context.CancelFunc // ends the current run loop's context; nil before the first start
}

// ID returns the session's identifier.
func (s *Session) ID() string { return s.id }

// Fingerprint returns the session's content-addressed identity.
func (s *Session) Fingerprint() string { return s.fp }

// Scenario returns the session's immutable scenario.
func (s *Session) Scenario() Scenario { return s.sc }

// State returns the session's current lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Done returns the steps integrated so far.
func (s *Session) Done() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.doneSteps
}

// requestPause flags the session and cancels its run loop's context — and
// with it a segment in flight or waiting for a worker; the loop lands the
// paused state after rolling back to the last durable checkpoint.
func (s *Session) requestPause() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != StateRunning || s.pauseReq {
		return false
	}
	s.pauseReq = true
	if s.cancel != nil {
		s.cancel()
	}
	return true
}

func (s *Session) pauseRequested() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pauseReq
}

// View is the JSON representation of a session's status.
type View struct {
	ID          string    `json:"id"`
	State       State     `json:"state"`
	Kind        string    `json:"kind"`
	Fingerprint string    `json:"fingerprint"`
	TotalSteps  int64     `json:"total_steps"`
	DoneSteps   int64     `json:"done_steps"`
	Segment     int       `json:"segment"`
	Retain      int       `json:"retain"`
	Segments    int64     `json:"segments"`
	Resumes     int64     `json:"resumes"`
	ParentFP    string    `json:"parent_fp,omitempty"`
	ParentStep  int64     `json:"parent_step,omitempty"`
	TraceID     string    `json:"trace_id,omitempty"`
	Error       string    `json:"error,omitempty"`
	Created     time.Time `json:"created"`
	Updated     time.Time `json:"updated"`
	// LastCheckpoint is the step of the newest durable checkpoint (0 when
	// none has landed yet), and FieldHash the sha256 of its interior — the
	// handle e2e tests use to assert bitwise-identical recovery.
	LastCheckpoint int64   `json:"last_checkpoint"`
	FieldHash      string  `json:"field_hash,omitempty"`
	LastGF         float64 `json:"last_gf,omitempty"`
}

// View snapshots the session for the API. This is the status hot path:
// BENCH_guards.json bounds its allocations.
func (s *Session) View() View {
	s.mu.Lock()
	defer s.mu.Unlock()
	return View{
		ID: s.id, State: s.state, Kind: s.sc.Kind.String(),
		Fingerprint: s.fp,
		TotalSteps:  int64(s.sc.Problem.Steps), DoneSteps: s.doneSteps,
		Segment: s.sc.Segment, Retain: s.sc.Retain,
		Segments: s.segments, Resumes: s.resumes,
		ParentFP: s.sc.ParentFP, ParentStep: s.sc.ParentStep,
		TraceID: s.sc.TraceID, Error: s.errMsg,
		Created: s.created, Updated: s.updated,
		LastCheckpoint: s.lastCkpt, FieldHash: s.fieldHash, LastGF: s.lastGF,
	}
}

// fieldHash returns the hex SHA-256 of a field's interior values, the
// bitwise identity of a checkpointed state.
func fieldHash(f *grid.Field) string {
	h := sha256.New()
	var buf [8]byte
	for k := 0; k < f.N.Z; k++ {
		for j := 0; j < f.N.Y; j++ {
			for i := 0; i < f.N.X; i++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.At(i, j, k)))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
