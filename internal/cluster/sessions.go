package cluster

import (
	"context"
	"encoding/json"
	"net/http"
	"strconv"

	"repro/internal/obs"
	"repro/internal/service"
)

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
	_, resp, err := r.place(req.Context(), r.sessions, fp, body, submissionTrace{id: sreq.TraceID})
	if resp != nil { // the owner's answer: accepted, or its 4xx
		resp.relay(w)
		return
	}
	service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorDoc{Error: err.Error()})
}

// syncSessions replicates every live session's newest checkpoint off its
// owner into the gateway table. The replica is what makes a dead owner's
// sessions resumable elsewhere: advectd nodes do not talk to each other, so
// the gateway is the transport. Each sweep reads the owner's view of the
// session first: a finished session is released (and its replica dropped),
// and a checkpoint is pulled only when the view's last checkpoint is newer
// than the replica. Fetch errors are left alone — the health sweep owns
// declaring nodes dead, and a stale replica still resumes the session, just
// further back.
func (r *Router) syncSessions(ctx context.Context) {
	for _, e := range r.unfinished(r.sessions, "") {
		if r.members.State(e.node) != NodeUp {
			continue
		}
		url := r.members.URL(e.node) + "/v1/sessions/" + e.id
		resp, err := r.client.do(ctx, http.MethodGet, url, nil)
		var v struct {
			State          service.State `json:"state"`
			LastCheckpoint int64         `json:"last_checkpoint"`
		}
		if err != nil || resp.expect("session", http.StatusOK, &v) != nil {
			continue
		}
		if v.State.Terminal() {
			r.finish(e)
			continue
		}
		r.mu.Lock()
		stale := v.LastCheckpoint > e.ckptStep
		r.mu.Unlock()
		if !stale {
			continue
		}
		resp, err = r.client.do(ctx, http.MethodGet, url+"/checkpoint?step="+strconv.FormatInt(v.LastCheckpoint, 10), nil)
		if err != nil || resp.expect("checkpoint", http.StatusOK, nil) != nil {
			continue
		}
		r.mu.Lock()
		// A poll may have seen the session finish while the bytes were in
		// flight: a terminal entry keeps no replica.
		if !e.terminal && v.LastCheckpoint > e.ckptStep {
			e.ckpt, e.ckptStep = resp.body, v.LastCheckpoint
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
		e.replaced, e.ckpt = succ, nil // the successor gets replicas of its own
		r.counters.SessionResumes++
		r.mu.Unlock()
		r.log.Info("session resumed on survivor", traceArgs(e.trace, "session", e.id, "from", deadID,
			"to", succ.node, "successor", succ.id, "checkpoint_step", ckptStep)...)
	}
}
