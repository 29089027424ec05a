package cluster

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// NodeState is a member's position in the cluster lifecycle.
type NodeState string

const (
	// NodeUp members own shard ranges and receive new traffic.
	NodeUp NodeState = "up"
	// NodeDraining members have stopped admitting jobs but still serve
	// polls for their in-flight work; their shard range has already been
	// rebalanced to the up members. No traffic is lost: accepted jobs
	// finish where they are while new submissions route elsewhere.
	NodeDraining NodeState = "draining"
	// NodeDown members failed health checks; their in-flight jobs are
	// re-submitted (deduplicated by fingerprint) to the surviving members.
	NodeDown NodeState = "down"
)

// Member identifies one advectd node: a stable id (matching the node's
// Config.NodeID) and its base URL.
type Member struct {
	ID  string `json:"id"`
	URL string `json:"url"`
}

// MemberStatus is a membership snapshot entry.
type MemberStatus struct {
	Member
	State NodeState `json:"state"`
	// Fails is the current consecutive health-check failure count.
	Fails int `json:"fails,omitempty"`
	// LastErr is the most recent health-check error, if any.
	LastErr string `json:"last_err,omitempty"`
	// Since is when the member entered its current state.
	Since time.Time `json:"since"`
}

// Membership tracks node states, drives the up/draining/down transitions
// from health-check results, and owns the routing snapshot: every
// transition it decides publishes a new Ring over the up members under the
// same lock, so routing never trails a state change.
type Membership struct {
	mu            sync.Mutex
	members       map[string]*memberState
	failThreshold int
	ring          atomic.Pointer[Ring]
}

type memberState struct {
	Member
	state   NodeState
	fails   int
	lastErr string
	since   time.Time
	// gen counts state transitions. Probe verdicts are applied
	// compare-and-swap style against the generation observed when the
	// probe was issued, so a transition that lands between probe read and
	// verdict apply (an operator drain) is never overwritten by the
	// probe's stale evidence.
	gen uint64
}

// NewMembership starts every member up (optimistically routable; the first
// health sweep corrects that within one interval). failThreshold is how
// many consecutive probe failures turn a node down; < 1 means 1.
func NewMembership(members []Member, failThreshold int, now time.Time) *Membership {
	if failThreshold < 1 {
		failThreshold = 1
	}
	m := &Membership{
		members:       make(map[string]*memberState, len(members)),
		failThreshold: failThreshold,
	}
	for _, mem := range members {
		m.members[mem.ID] = &memberState{Member: mem, state: NodeUp, since: now}
	}
	m.publish()
	return m
}

// Add registers a new member in the up state. It reports whether the
// member was actually added (false if the id is already present — states
// of existing members are never clobbered by a re-add).
func (m *Membership) Add(mem Member, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.members[mem.ID]; ok {
		return false
	}
	m.members[mem.ID] = &memberState{Member: mem, state: NodeUp, since: now}
	m.publish()
	return true
}

// Snapshot returns every member's status, sorted by id.
func (m *Membership) Snapshot() []MemberStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]MemberStatus, 0, len(m.members))
	for _, ms := range m.members {
		out = append(out, MemberStatus{
			Member: ms.Member, State: ms.state,
			Fails: ms.fails, LastErr: ms.lastErr, Since: ms.since,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// State returns a member's current state ("" if unknown).
func (m *Membership) State(id string) NodeState {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ms, ok := m.members[id]; ok {
		return ms.state
	}
	return ""
}

// URL returns a member's base URL ("" if unknown).
func (m *Membership) URL(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ms, ok := m.members[id]; ok {
		return ms.URL
	}
	return ""
}

// Ring returns the routing snapshot over the members that may receive new
// traffic (up), as of the latest transition.
func (m *Membership) Ring() *Ring { return m.ring.Load() }

// publish rebuilds the routing snapshot from the up members. The caller
// holds the membership lock, so snapshots are published in transition
// order.
func (m *Membership) publish() {
	var up []string
	for id, ms := range m.members {
		if ms.state == NodeUp {
			up = append(up, id)
		}
	}
	m.ring.Store(NewRing(up))
}

// ReportDraining records a draining probe (healthz 503 {"status":
// "draining"}) and returns true if the state changed.
func (m *Membership) ReportDraining(id string, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.members[id]
	return ok && m.enter(ms, NodeDraining, now)
}

// generation returns the member's transition counter, read before a probe
// is issued so its verdict can be applied only if no transition raced it.
func (m *Membership) generation(id string) uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ms, ok := m.members[id]; ok {
		return ms.gen
	}
	return 0
}

// reportIf applies a probe verdict only if the member's generation still
// matches gen — the one read before the probe went out. A stale verdict
// (the probe read the node's healthz before a concurrent transition, like
// an operator drain, changed the state) is dropped; the next sweep probes
// fresh and decides then.
func (m *Membership) reportIf(id string, gen uint64, state NodeState, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.members[id]
	return ok && ms.gen == gen && m.enter(ms, state, now)
}

// ReportFailure records a failed probe; after failThreshold consecutive
// failures the member goes down. Returns true when this report is the one
// that took the node down.
func (m *Membership) ReportFailure(id string, errMsg string, now time.Time) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ms, ok := m.members[id]
	if !ok {
		return false
	}
	ms.fails++
	ms.lastErr = errMsg
	if ms.state != NodeDown && ms.fails >= m.failThreshold {
		ms.state = NodeDown
		ms.since = now
		ms.gen++
		m.publish()
		return true
	}
	return false
}

// enter puts the member in state on the evidence of an answered probe —
// the failure streak resets — and reports whether the state changed,
// publishing the routing snapshot if it did. The caller holds the
// membership lock.
func (m *Membership) enter(ms *memberState, state NodeState, now time.Time) bool {
	ms.fails = 0
	ms.lastErr = ""
	if ms.state == state {
		return false
	}
	ms.state = state
	ms.since = now
	ms.gen++
	m.publish()
	return true
}
