package cluster

import (
	"context"
	"encoding/json"
	"net/http"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/session"
)

// labelledSession decorates a node's session view with the shard that
// owns it.
type labelledSession struct {
	session.View
	Node string `json:"node"`
}

// handleSessionCreate routes a new session to the shard that owns its
// fingerprint. A session with no trace id gets one minted here, so the
// trajectory stays one logical trace however many owners it passes
// through. Shards that cannot take the session (draining, sessions
// disabled) fail over to the next ring successor. The body bound is the
// default node limit's: the gateway does not know its members' -maxn.
func (r *Router) handleSessionCreate(w http.ResponseWriter, req *http.Request) {
	var sreq service.SessionRequest
	if err := service.DecodeBody(w, req, service.DefaultLimits().SessionBodyBytes(), &sreq); err != nil {
		service.WriteBadBody(w, err)
		return
	}
	fp, err := service.SessionFingerprint(sreq)
	if err != nil {
		service.WriteJSON(w, http.StatusBadRequest, service.ErrorDoc{Error: err.Error()})
		return
	}
	if sreq.TraceID == "" {
		sreq.TraceID = obs.NewTraceID()
	}
	body, err := json.Marshal(sreq)
	if err != nil {
		service.WriteJSON(w, http.StatusInternalServerError, service.ErrorDoc{Error: err.Error()})
		return
	}
	e, resp, err := r.routeSession(req.Context(), fp, sreq.TraceID, body)
	if err != nil {
		service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorDoc{Error: err.Error()})
		return
	}
	var v session.View
	if e == nil || json.Unmarshal(resp.body, &v) != nil {
		resp.relay(w) // a shard answered with a client error; pass it through
		return
	}
	service.WriteJSON(w, resp.status, labelledSession{View: v, Node: e.node})
}

// routeSession walks the ring from the fingerprint's owner until a shard
// accepts the session. 4xx answers are the client's problem and stop the
// walk (nil entry, the shard's answer); 503 (draining or sessions
// disabled) and transport errors move to the next successor. On acceptance
// the session lands in the gateway table so status polls, the checkpoint
// sync sweep, and dead-owner resumes can find it.
func (r *Router) routeSession(ctx context.Context, fp, traceID string, body []byte) (*entry, *nodeResponse, error) {
	ring := r.ring.Load()
	n := len(ring.Nodes())
	for attempt := 0; attempt < n; attempt++ {
		nodeID := ring.LookupOffset(fp, attempt)
		if r.members.State(nodeID) != NodeUp {
			continue
		}
		resp, err := r.client.do(ctx, http.MethodPost, r.members.URL(nodeID)+"/v1/sessions", body)
		if err != nil {
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			r.log.Warn("session forward failed", "node", nodeID, "error", err, "trace_id", traceID)
			r.nodeFailed(nodeID, err)
			continue
		}
		switch resp.status {
		case http.StatusAccepted, http.StatusOK:
			var v session.View
			if err := json.Unmarshal(resp.body, &v); err != nil {
				return nil, nil, err
			}
			e := &entry{id: v.ID, node: nodeID, fp: fp, body: body, traceID: traceID}
			r.mu.Lock()
			r.sessions.entries[e.id] = e
			r.counters.SessionRoutes++
			r.mu.Unlock()
			r.log.Info("session routed", "node", nodeID, "session", v.ID,
				"fingerprint", fp, "trace_id", traceID, "failover", attempt > 0)
			return e, resp, nil
		case http.StatusServiceUnavailable:
			r.log.Info("shard cannot host session, failing over", "node", nodeID, "trace_id", traceID)
		default:
			return nil, resp, nil
		}
	}
	return nil, nil, ErrNoNodes
}

// handleSessionStatus proxies a session poll to its current owner and
// marks the entry terminal once the owner reports it finished, so the sync
// sweep stops replicating it.
func (r *Router) handleSessionStatus(w http.ResponseWriter, req *http.Request) {
	e, resp, ok := r.forward(w, req, r.sessions, lostAnswer{status: http.StatusOK})
	if !ok {
		return
	}
	var v session.View
	if resp.expect("session", http.StatusOK, &v) != nil {
		resp.relay(w)
		return
	}
	if v.State.Terminal() {
		r.finish(e)
	}
	service.WriteJSON(w, resp.status, labelledSession{View: v, Node: e.node})
}

// handleSessionFork proxies a fork to the parent's owner and records the
// child in the gateway table — forks inherit the parent's shard (they
// read its retained checkpoints), so the child is tracked and replicated
// like any other session on that node.
func (r *Router) handleSessionFork(w http.ResponseWriter, req *http.Request) {
	e, resp, ok := r.forward(w, req, r.sessions, sessionLost(http.StatusConflict))
	if !ok {
		return
	}
	var v session.View
	if resp.expect("fork", http.StatusAccepted, &v) != nil {
		resp.relay(w)
		return
	}
	r.mu.Lock()
	r.sessions.entries[v.ID] = &entry{id: v.ID, node: e.node, fp: v.Fingerprint, traceID: v.TraceID}
	r.mu.Unlock()
	service.WriteJSON(w, resp.status, labelledSession{View: v, Node: e.node})
}

// syncSessions replicates every live session's newest checkpoint off its
// owner into the gateway table, one pull per session. The replica is what
// makes a dead owner's sessions resumable elsewhere: advectd nodes do not
// talk to each other, so the gateway is the transport. Fetch errors are
// left alone — the health sweep owns declaring nodes dead, and a stale
// replica still resumes the session, just further back.
func (r *Router) syncSessions(ctx context.Context) {
	for _, e := range r.unfinished(r.sessions, "") {
		if r.members.State(e.node) != NodeUp {
			continue
		}
		data, step, err := r.client.checkpoint(ctx, r.members.URL(e.node), e.id)
		if err != nil || data == nil {
			continue
		}
		r.mu.Lock()
		if step > e.ckptStep || e.ckpt == nil {
			e.ckpt = data
			e.ckptStep = step
			r.counters.CheckpointSyncs++
		}
		r.mu.Unlock()
	}
}

// resumeDeadSessions re-homes a dead node's sessions: each one is
// re-created on a surviving shard seeded with the newest replicated
// checkpoint (from step zero when none replicated — slower, never wrong),
// under the same trace id, and the old id forwards to the successor. The
// companion of rerouteDead, for work that is a trajectory rather than a
// job.
func (r *Router) resumeDeadSessions(ctx context.Context, deadID string) {
	for _, e := range r.unfinished(r.sessions, deadID) {
		if len(e.body) == 0 {
			// A fork recorded from its parent's shard: the gateway holds no
			// create request to replay, so the child cannot be re-homed.
			r.lose([]*entry{e}, "node "+deadID+" died holding a forked session")
			continue
		}
		var sreq service.SessionRequest
		if err := json.Unmarshal(e.body, &sreq); err != nil {
			continue
		}
		r.mu.Lock()
		sreq.Checkpoint = e.ckpt
		ckptStep := e.ckptStep
		r.mu.Unlock()
		body, err := json.Marshal(sreq)
		if err != nil {
			continue
		}
		succ, _, err := r.routeSession(ctx, e.fp, e.traceID, body)
		if err != nil || succ == nil {
			msg := "node " + deadID + " died and the session resume failed"
			if err != nil {
				msg += ": " + err.Error()
			}
			r.lose([]*entry{e}, msg)
			r.log.Error("session resume failed", "session", e.id, "node", deadID,
				"trace_id", e.traceID, "error", err)
			continue
		}
		r.mu.Lock()
		e.replaced = succ
		r.counters.SessionResumes++
		r.mu.Unlock()
		r.log.Info("session resumed on survivor", "session", e.id, "from", deadID,
			"to", succ.node, "successor", succ.id, "checkpoint_step", ckptStep,
			"trace_id", e.traceID)
	}
}
