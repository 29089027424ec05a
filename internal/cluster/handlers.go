package cluster

import (
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// routes is the gateway's HTTP surface, one entry per route: the API
// reference is this list (README and DESIGN.md point here). The job and
// session surface mirrors a single advectd node — clients talk to the
// cluster exactly as they would to one process — plus cluster-level
// membership and drain controls. Every /{id} route under /v1/jobs and
// /v1/sessions relays the owner's answer through proxy; what is written
// here per route is its answer for a lost entry and what the gateway
// learns from the owner's answer.
func (r *Router) routes() []service.Route {
	return []service.Route{
		{Pattern: "POST /v1/jobs", Doc: "submit (routed to the owner shard)", Handler: r.handleSubmit},
		{Pattern: "GET /v1/jobs", Doc: "merged job list across nodes", Handler: r.handleList("jobs")},
		{Pattern: "GET /v1/jobs/{id}", Doc: "job status (proxied)",
			Handler: r.proxy(r.jobs, lostAnswer{status: http.StatusOK}, r.learnState)},
		{Pattern: "GET /v1/jobs/{id}/result", Doc: "result document (proxied)",
			Handler: r.proxy(r.jobs, lostAnswer{status: http.StatusInternalServerError}, r.learnResult)},
		{Pattern: "GET /v1/jobs/{id}/trace", Doc: "cluster Chrome trace (gateway spans joined to the owner's)", Handler: r.handleTrace},
		{Pattern: "GET /v1/jobs/{id}/spans", Doc: "the owner's raw span log (proxied)",
			Handler: r.proxy(r.jobs, lostAnswer{status: http.StatusNotFound, node: true}, nil)},
		{Pattern: "DELETE /v1/jobs/{id}", Doc: "cancel (proxied)",
			Handler: r.proxy(r.jobs, lostAnswer{status: http.StatusConflict, prefix: "job already failed: "}, r.learnState)},
		{Pattern: "POST /v1/sessions", Doc: "create a resumable session (routed by fingerprint)", Handler: r.handleSessionCreate},
		{Pattern: "GET /v1/sessions", Doc: "merged session list across nodes", Handler: r.handleList("sessions")},
		{Pattern: "GET /v1/sessions/{id}", Doc: "session status (proxied, follows failover)",
			Handler: r.proxy(r.sessions, lostAnswer{status: http.StatusOK}, r.learnState)},
		{Pattern: "POST /v1/sessions/{id}/pause", Doc: "pause (proxied)",
			Handler: r.proxy(r.sessions, sessionLost(http.StatusConflict), nil)},
		{Pattern: "POST /v1/sessions/{id}/resume", Doc: "resume (proxied)",
			Handler: r.proxy(r.sessions, sessionLost(http.StatusConflict), nil)},
		{Pattern: "POST /v1/sessions/{id}/fork", Doc: "fork from a retained checkpoint (proxied, child recorded)",
			Handler: r.proxy(r.sessions, sessionLost(http.StatusConflict), r.learnFork)},
		{Pattern: "GET /v1/sessions/{id}/checkpoint", Doc: "raw checkpoint bytes, the replication surface (proxied)",
			Handler: r.proxy(r.sessions, sessionLost(http.StatusNotFound), nil)},
		{Pattern: "GET /v1/stats", Doc: "every node's rolling-window telemetry as it served it, beside the gateway's state",
			Handler: r.handleFederated("/v1/stats")},
		{Pattern: "GET /v1/stream", Doc: "federated SSE stream (every node's events as it sent them, the gateway's state)", Handler: r.handleStream},
		{Pattern: "GET /v1/kinds", Doc: "implementation catalogue (any up node)", Handler: r.handleCatalogue("/v1/kinds")},
		{Pattern: "GET /v1/experiments", Doc: "experiment catalogue (any up node)", Handler: r.handleCatalogue("/v1/experiments")},
		{Pattern: "GET /v1/cluster", Doc: "the gateway's state: membership, ring, routing counters and windows", Handler: r.handleCluster},
		{Pattern: "POST /v1/nodes", Doc: `join a new node ({"id": ..., "url": ...})`, Handler: r.handleNodeJoin},
		{Pattern: "POST /v1/nodes/{id}/drain", Doc: "drain one node and rebalance its shard", Handler: r.handleNodeDrain},
		{Pattern: "GET /v1/debug/bundle", Doc: "cluster postmortem (every node's bundle as it served it, beside the gateway's state)",
			Handler: r.handleFederated("/v1/debug/bundle")},
		{Pattern: "GET /metrics", Doc: "gateway Prometheus exposition (?format=json)", Handler: r.handleMetrics},
		{Pattern: "GET /healthz", Doc: "gateway liveness (503 with no routable nodes)", Handler: r.handleHealthz},
	}
}

// handleSubmit places a job through place and relays the owner's answer:
// its status (202 admitted, 200 from its cache), its view, which names
// the node. A traced request gets a trace id minted here and sent in its
// trace_id field: the gateway records its own routing spans and joins the
// owner's spans to them when the trace is read, so the job's Chrome trace
// starts at the gateway, not at the node.
func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var jobReq service.Request
	if err := service.DecodeBody(w, req, service.MaxDocBytes, &jobReq); err != nil {
		service.WriteBadBody(w, err)
		return
	}
	var tr submissionTrace
	if jobReq.Traced() {
		tr = newSubmissionTrace()
		jobReq.TraceID = tr.id
	}
	body, err := json.Marshal(jobReq)
	if err != nil {
		service.WriteJSON(w, http.StatusInternalServerError, service.ErrorDoc{Error: err.Error()})
		return
	}
	_, resp, err := r.place(req.Context(), r.jobs, jobReq.CacheKey(), body, tr)
	var shed *shedError
	switch {
	case resp != nil: // the owner's answer: accepted, or its 4xx
		resp.relay(w)
	case errors.As(err, &shed):
		ra := shed.RetryAfter
		if ra < time.Second {
			ra = time.Second
		}
		w.Header().Set("Retry-After", strconv.Itoa(int(ra.Seconds()+0.5)))
		service.WriteJSON(w, http.StatusTooManyRequests, service.ErrorDoc{
			Error: err.Error(), Nodes: shed.Nodes, Attempts: shed.Attempts,
		})
	case errors.Is(err, ErrNoNodes):
		service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorDoc{Error: err.Error()})
	default:
		service.WriteJSON(w, http.StatusInternalServerError, service.ErrorDoc{Error: err.Error()})
	}
}

// lostAnswer is what a proxied route says for an entry whose shard died
// and could not be re-homed; each route keeps the status and wording it
// has always had. Status 200 is the status routes' answer: the entry's
// view, state failed, with the loss as its error.
type lostAnswer struct {
	status int
	prefix string // put before the recorded loss in the error document
	node   bool   // name the dead shard in the error document
}

func sessionLost(status int) lostAnswer {
	return lostAnswer{status: status, prefix: "session lost: "}
}

// forward is the proxy path of every /v1/<kind>/{id}... route: resolve the
// id through the failover chain, answer for an id the gateway never routed
// (404) or an entry that is lost, relay the client's method, query string
// and body to the entry's current owner under the owner's id, and map a
// transport failure to a shard-attributed 502. ok is false once it has
// answered; otherwise the caller has the owner's answer to give.
func (r *Router) forward(w http.ResponseWriter, req *http.Request, t *table, lost lostAnswer) (*entry, *nodeResponse, bool) {
	id := req.PathValue("id")
	e, why, ok := r.resolve(t, id)
	switch {
	case !ok:
		service.WriteJSON(w, http.StatusNotFound, service.ErrorDoc{Error: "unknown " + t.noun})
		return nil, nil, false
	case why != "" && lost.status == http.StatusOK:
		// Both tiers' views spell the failed state the same.
		service.WriteJSON(w, http.StatusOK, map[string]any{
			"id": e.id, "state": service.StateFailed, "error": why, "node": e.node,
		})
		return nil, nil, false
	case why != "":
		doc := service.ErrorDoc{Error: lost.prefix + why}
		if lost.node {
			doc.Node = e.node
		}
		service.WriteJSON(w, lost.status, doc)
		return nil, nil, false
	}
	body, err := service.ReadBody(w, req, service.MaxDocBytes)
	if err != nil {
		service.WriteBadBody(w, err)
		return nil, nil, false
	}
	url := r.members.URL(e.node) + t.route + "/" + e.id + strings.TrimPrefix(req.URL.Path, t.route+"/"+id)
	if req.URL.RawQuery != "" {
		url += "?" + req.URL.RawQuery
	}
	resp, err := r.client.do(req.Context(), req.Method, url, body)
	if err != nil {
		if req.Context().Err() == nil {
			r.nodeFailed(e.node, err) // the client is still there: the shard is at fault
		}
		service.WriteJSON(w, http.StatusBadGateway,
			service.ErrorDoc{Error: "shard unreachable: " + err.Error(), Node: e.node})
		return nil, nil, false
	}
	return e, resp, true
}

// proxy serves a per-id route: the owner's answer is relayed to the client
// unchanged — status, headers, bytes — after learn, when the route has
// one, has read from it what the gateway's table needs.
func (r *Router) proxy(t *table, lost lostAnswer, learn func(*entry, *nodeResponse)) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		e, resp, ok := r.forward(w, req, t, lost)
		if !ok {
			return
		}
		if learn != nil {
			learn(e, resp)
		}
		resp.relay(w)
	}
}

// learnState releases an entry whose status or cancel answer is a view in
// a terminal state. Both tiers' views spell their terminal states as the
// job states do.
func (r *Router) learnState(e *entry, resp *nodeResponse) {
	var v struct {
		State service.State `json:"state"`
	}
	if resp.expect("view", http.StatusOK, &v) == nil && v.State.Terminal() {
		r.finish(e)
	}
}

// learnResult releases a job whose result answer shows it finished: the
// node's result route encodes the state in its status code — 200 done,
// 500 failed, 410 cancelled, 202 still pending.
func (r *Router) learnResult(e *entry, resp *nodeResponse) {
	switch resp.status {
	case http.StatusOK, http.StatusInternalServerError, http.StatusGone:
		r.finish(e)
	}
}

// learnFork tables a fork's child: forks inherit the parent's shard (they
// read its retained checkpoints), so the child is tracked and replicated
// like any other session on that node.
func (r *Router) learnFork(e *entry, resp *nodeResponse) {
	var child struct {
		ID          string `json:"id"`
		Fingerprint string `json:"fingerprint"`
		TraceID     string `json:"trace_id"`
	}
	if resp.expect("fork", http.StatusAccepted, &child) != nil {
		return
	}
	r.mu.Lock()
	r.sessions.entries[child.ID] = &entry{id: child.ID, node: e.node, fp: child.Fingerprint,
		trace: submissionTrace{id: child.TraceID}}
	r.mu.Unlock()
}

// handleTrace serves a job's cluster trace, assembled here and nowhere
// else: the owner's span log, read from its /spans route with the client's
// query, joined to the routing spans and dead-owner harvests the gateway
// holds. An owner with no span log to give (an untraced job, a cache hit)
// has its answer relayed.
func (r *Router) handleTrace(w http.ResponseWriter, req *http.Request) {
	spans := req.Clone(req.Context())
	spans.URL.Path = strings.TrimSuffix(req.URL.Path, "/trace") + "/spans"
	e, resp, ok := r.forward(w, spans, r.jobs, lostAnswer{status: http.StatusNotFound})
	if !ok {
		return
	}
	var owner obs.TraceContext
	if resp.expect("spans", http.StatusOK, &owner) != nil {
		resp.relay(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	_ = obs.WriteChromeTrace(w, e.trace.rec.Joined(e.node, &owner)) // the first write sends the 200
}

// handleList merges every reachable shard's list document (GET /v1/<kind>
// answers {"<kind>": [...]}): the nodes' elements, each naming its node,
// concatenated as they were sent.
func (r *Router) handleList(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		out := []json.RawMessage{}
		for _, a := range r.getEach(req.Context(), r.members.Snapshot(), "/v1/"+kind) {
			var doc map[string][]json.RawMessage
			if a.resp != nil && a.resp.expect(kind, http.StatusOK, &doc) == nil {
				out = append(out, doc[kind]...)
			}
		}
		service.WriteJSON(w, http.StatusOK, map[string]any{kind: out})
	}
}

// handleStream is the federated live feed: every node's SSE events, each
// naming its node, multiplexed through the gateway hub as the nodes sent
// them, plus a periodic "gateway" event carrying the gateway's state. A
// node's stats already arrive as its own "stats" events, so a tick asks no
// node anything.
func (r *Router) handleStream(w http.ResponseWriter, req *http.Request) {
	service.ServeStream(w, req, r.hub, service.StreamInterval, service.HeartbeatInterval, "gateway",
		func() any { return r.state() })
}

// handleCatalogue proxies a static catalogue endpoint (identical on every
// node) from the first member, in id order, that answers.
func (r *Router) handleCatalogue(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		for _, a := range r.getEach(req.Context(), r.members.Snapshot(), path) {
			if a.resp != nil && a.resp.status == http.StatusOK {
				a.resp.relay(w)
				return
			}
		}
		service.WriteJSON(w, http.StatusServiceUnavailable, service.ErrorDoc{Error: ErrNoNodes.Error()})
	}
}

func (r *Router) handleCluster(w http.ResponseWriter, req *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.state())
}

func (r *Router) handleNodeJoin(w http.ResponseWriter, req *http.Request) {
	var mem Member
	if err := service.DecodeBody(w, req, service.MaxDocBytes, &mem); err != nil {
		service.WriteBadBody(w, err)
		return
	}
	if err := r.AddMember(mem); err != nil {
		service.WriteJSON(w, http.StatusConflict, service.ErrorDoc{Error: err.Error()})
		return
	}
	service.WriteJSON(w, http.StatusCreated, map[string]any{"status": "joined", "node": mem.ID})
}

func (r *Router) handleNodeDrain(w http.ResponseWriter, req *http.Request) {
	id := req.PathValue("id")
	if err := r.DrainNode(req.Context(), id); err != nil {
		status := http.StatusBadGateway
		if r.members.URL(id) == "" {
			status = http.StatusNotFound
		}
		service.WriteJSON(w, status, service.ErrorDoc{Error: err.Error()})
		return
	}
	service.WriteJSON(w, http.StatusAccepted, map[string]any{"status": "draining", "node": id})
}

// handleMetrics serves the gateway's own observability: cumulative routing
// counters, rolling route/retry/failover windows, and process health, in
// the Prometheus text format by default or JSON on request.
func (r *Router) handleMetrics(w http.ResponseWriter, req *http.Request) {
	m := r.Metrics(time.Now())
	service.WriteMetrics(w, req, m, m.Prometheus)
}

// handleHealthz reports gateway liveness: healthy while at least one
// member is routable, 503 degraded otherwise (a load balancer in front of
// several gateways should stop routing here).
func (r *Router) handleHealthz(w http.ResponseWriter, req *http.Request) {
	states := map[NodeState]int{}
	for _, m := range r.members.Snapshot() {
		states[m.State]++
	}
	doc := map[string]any{
		"status": "ok",
		"nodes":  map[string]int{"up": states[NodeUp], "draining": states[NodeDraining], "down": states[NodeDown]},
	}
	if states[NodeUp] == 0 {
		doc["status"] = "degraded"
		service.WriteJSON(w, http.StatusServiceUnavailable, doc)
		return
	}
	service.WriteJSON(w, http.StatusOK, doc)
}
