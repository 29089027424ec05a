package cluster

import (
	"context"
	"encoding/json"
	"errors"
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

// handleSessionCreate places a new session through place, as a job is
// placed. A session with no trace id gets one minted here, so the
// trajectory stays one logical trace however many owners it passes
// through. A shard's 4xx is relayed; a create no shard takes answers 503.
// The body bound is the default node limit's: the gateway does not know
// its members' -maxn.
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
	e, resp, err := r.place(req.Context(), r.sessions, fp, body, submissionTrace{id: sreq.TraceID})
	var bad *badRequest
	switch {
	case errors.As(err, &bad):
		bad.resp.relay(w)
	case err != nil:
		service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorDoc{Error: err.Error()})
	default:
		var v session.View
		if json.Unmarshal(resp.body, &v) != nil {
			resp.relay(w)
			return
		}
		service.WriteJSON(w, resp.status, labelledSession{View: v, Node: e.node})
	}
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
	r.sessions.entries[v.ID] = &entry{id: v.ID, node: e.node, fp: v.Fingerprint, trace: submissionTrace{id: v.TraceID}}
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
		succ, _, err := r.place(ctx, r.sessions, e.fp, body, e.trace)
		if err != nil {
			r.lose([]*entry{e}, "node "+deadID+" died and the session resume failed: "+err.Error())
			r.log.Error("session resume failed", traceArgs(e.trace, "session", e.id, "node", deadID,
				"error", err)...)
			continue
		}
		r.mu.Lock()
		e.replaced = succ
		r.counters.SessionResumes++
		r.mu.Unlock()
		r.log.Info("session resumed on survivor", traceArgs(e.trace, "session", e.id, "from", deadID,
			"to", succ.node, "successor", succ.id, "checkpoint_step", ckptStep)...)
	}
}
