// Package session is the durable side of resumable sessions. The paper's
// GPU-resident scenario assumes "a computation might run for hours between
// CPU-GPU checkpoints" (§IV-E); here that run is a session: a long scenario
// executed as a chain of segments, each ending in a checkpoint on disk
// (checkpoint.FromResult into a content-addressed store keyed by the
// canonical fingerprint + step). This package holds what a restarted
// process reads back — the Scenario with its fingerprint and normalisation,
// the session's status (View), the Record pairing the two, and the Store of
// checkpoints and records — plus LandSegment, the one way a finished segment
// becomes durable. Because every segment boundary is durable, a restarted
// node rescans the store and continues each interrupted session from its
// last checkpoint, bit-for-bit equal to an uninterrupted run. The live
// sessions — their run loops, pause, resume and fork — belong to the node
// that runs them (internal/service), beside its jobs.
package session

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strconv"
	"time"

	"repro/internal/core"
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

// The steps between durable checkpoints and the checkpoints kept per
// session when a scenario leaves Segment or Retain zero; a request that
// wants others says so itself.
const (
	defaultSegment = 25
	defaultRetain  = 4
)

// Normalize applies the defaults and validates the scenario. It is the one
// normalisation every way into a session goes through: create, seeded
// create, fork, recovery, and the fingerprint a gateway shards by.
func (sc Scenario) Normalize() (Scenario, error) {
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
	sc.Segment = min(sc.Segment, sc.Problem.Steps)
	sc.Options = sc.Options.Normalize()
	return sc, nil
}

// View is a session's status: what GET /v1/sessions/{id} answers, what a
// lifecycle event carries, and — with the scenario's problem and options —
// what its Record keeps on disk.
type View struct {
	ID          string    `json:"id"`
	Node        string    `json:"node,omitempty"` // the running node's Config.NodeID; empty standalone
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
	// none has landed yet), and FieldHash its checkpoint.FieldHash — the
	// handle e2e tests use to assert bitwise-identical recovery.
	LastCheckpoint int64   `json:"last_checkpoint"`
	FieldHash      string  `json:"field_hash,omitempty"`
	LastGF         float64 `json:"last_gf,omitempty"`
}

// View returns the status of a new running session of sc named id, done
// steps into its trajectory.
func (sc Scenario) View(id string, done int64, now time.Time) View {
	return View{
		ID: id, State: StateRunning, Kind: sc.Kind.String(), Fingerprint: sc.Fingerprint(),
		TotalSteps: int64(sc.Problem.Steps), DoneSteps: done,
		Segment: sc.Segment, Retain: sc.Retain,
		ParentFP: sc.ParentFP, ParentStep: sc.ParentStep, TraceID: sc.TraceID,
		Created: now, Updated: now,
	}
}
