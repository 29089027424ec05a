package cluster

import (
	"errors"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
	"repro/internal/session"
)

// routes is the gateway's HTTP surface, one entry per route: the API
// reference is this list (README and DESIGN.md point here). The job and
// session surface mirrors a single advectd node — clients talk to the
// cluster exactly as they would to one process — plus cluster-level
// membership and drain controls. Every /{id} route under /v1/jobs and
// /v1/sessions goes through forward; what is written here per route is
// its answer for a lost entry and, in its handler, what it adds to the
// owner's answer.
func (r *Router) routes() []service.Route {
	return []service.Route{
		{Pattern: "POST /v1/jobs", Doc: "submit (routed to the owner shard)", Handler: r.handleSubmit},
		{Pattern: "GET /v1/jobs", Doc: "merged job list across nodes", Handler: handleList(r, "jobs", labelView)},
		{Pattern: "GET /v1/jobs/{id}", Doc: "job status (proxied, node-labelled)",
			Handler: r.handleJobView(lostAnswer{status: http.StatusOK})},
		{Pattern: "GET /v1/jobs/{id}/result", Doc: "result document (proxied)", Handler: r.handleResult},
		{Pattern: "GET /v1/jobs/{id}/trace", Doc: "cluster Chrome trace (gateway spans joined to the owner's)", Handler: r.handleTrace},
		{Pattern: "GET /v1/jobs/{id}/spans", Doc: "the owner's raw span log (proxied)",
			Handler: r.proxy(r.jobs, lostAnswer{status: http.StatusNotFound, node: true})},
		{Pattern: "DELETE /v1/jobs/{id}", Doc: "cancel (proxied, node-labelled)",
			Handler: r.handleJobView(lostAnswer{status: http.StatusConflict, prefix: "job already failed: "})},
		{Pattern: "POST /v1/sessions", Doc: "create a resumable session (routed by fingerprint)", Handler: r.handleSessionCreate},
		{Pattern: "GET /v1/sessions", Doc: "merged session list across nodes", Handler: handleList(r, "sessions", labelSession)},
		{Pattern: "GET /v1/sessions/{id}", Doc: "session status (proxied, follows failover)", Handler: r.handleSessionStatus},
		{Pattern: "POST /v1/sessions/{id}/pause", Doc: "pause (proxied)",
			Handler: r.proxy(r.sessions, sessionLost(http.StatusConflict))},
		{Pattern: "POST /v1/sessions/{id}/resume", Doc: "resume (proxied)",
			Handler: r.proxy(r.sessions, sessionLost(http.StatusConflict))},
		{Pattern: "POST /v1/sessions/{id}/fork", Doc: "fork from a retained checkpoint (proxied, child recorded)", Handler: r.handleSessionFork},
		{Pattern: "GET /v1/sessions/{id}/checkpoint", Doc: "raw checkpoint bytes, the replication surface (proxied)",
			Handler: r.proxy(r.sessions, sessionLost(http.StatusNotFound))},
		{Pattern: "GET /v1/stats", Doc: "federated rolling-window telemetry", Handler: r.handleStats},
		{Pattern: "GET /v1/stream", Doc: "federated SSE stream (node-labelled)", Handler: r.handleStream},
		{Pattern: "GET /v1/kinds", Doc: "implementation catalogue (any up node)", Handler: r.handleCatalogue("/v1/kinds")},
		{Pattern: "GET /v1/experiments", Doc: "experiment catalogue (any up node)", Handler: r.handleCatalogue("/v1/experiments")},
		{Pattern: "GET /v1/cluster", Doc: "membership, ring, and routing counters", Handler: r.handleCluster},
		{Pattern: "POST /v1/nodes", Doc: `join a new node ({"id": ..., "url": ...})`, Handler: r.handleNodeJoin},
		{Pattern: "POST /v1/nodes/{id}/drain", Doc: "drain one node and rebalance its shard", Handler: r.handleNodeDrain},
		{Pattern: "GET /v1/debug/bundle", Doc: "cluster postmortem (every node's bundle, node-stamped)", Handler: r.handleBundle},
		{Pattern: "GET /metrics", Doc: "gateway Prometheus exposition (?format=json)", Handler: r.handleMetrics},
		{Pattern: "GET /healthz", Doc: "gateway liveness (503 with no routable nodes)", Handler: r.handleHealthz},
	}
}

func (r *Router) handleSubmit(w http.ResponseWriter, req *http.Request) {
	var jobReq service.Request
	if err := service.DecodeBody(w, req, service.MaxDocBytes, &jobReq); err != nil {
		service.WriteBadBody(w, err)
		return
	}
	view, nodeID, err := r.Submit(req.Context(), jobReq)
	if err != nil {
		var shed *shedError
		var bad *badRequest
		switch {
		case errors.As(err, &bad):
			bad.resp.relay(w)
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
		return
	}
	status := http.StatusAccepted
	if view.CacheHit { // owner answered from its cache; a job it finished since admitting it is still a 202
		status = http.StatusOK
	}
	service.WriteJSON(w, status, labelledView{View: view, Node: nodeID})
}

// labelledView decorates a node's job view with the shard that holds it.
type labelledView struct {
	service.View
	Node string `json:"node"`
}

func labelView(v service.View, node string) any    { return labelledView{View: v, Node: node} }
func labelSession(v session.View, node string) any { return labelledSession{View: v, Node: node} }

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
// answered; otherwise the caller adds what the route adds and relays the
// owner's answer.
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

// proxy serves a route that adds nothing to the owner's answer.
func (r *Router) proxy(t *table, lost lostAnswer) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		if _, resp, ok := r.forward(w, req, t, lost); ok {
			resp.relay(w)
		}
	}
}

// handleJobView serves job status and cancel, whose 200 answer is the
// job's view: it is re-emitted with the shard attached, and a terminal
// state releases the entry.
func (r *Router) handleJobView(lost lostAnswer) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		e, resp, ok := r.forward(w, req, r.jobs, lost)
		if !ok {
			return
		}
		var v service.View
		if resp.expect("job", http.StatusOK, &v) != nil {
			resp.relay(w)
			return
		}
		if v.State.Terminal() {
			r.finish(e)
		}
		service.WriteJSON(w, resp.status, labelledView{View: v, Node: e.node})
	}
}

func (r *Router) handleResult(w http.ResponseWriter, req *http.Request) {
	e, resp, ok := r.forward(w, req, r.jobs, lostAnswer{status: http.StatusInternalServerError})
	if !ok {
		return
	}
	// The node's result handler encodes the job state in its status code:
	// 200 done, 500 failed, 410 cancelled, 202 still pending.
	switch resp.status {
	case http.StatusOK, http.StatusInternalServerError, http.StatusGone:
		r.finish(e)
	}
	resp.relay(w)
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
// answers {"<kind>": [...]}), each element labelled with its shard.
func handleList[V any](r *Router, kind string, label func(V, string) any) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		out := []any{}
		for _, a := range r.getEach(req.Context(), r.members.Snapshot(), "/v1/"+kind) {
			var doc map[string][]V
			if a.resp == nil || a.resp.expect(kind, http.StatusOK, &doc) != nil {
				continue
			}
			for _, v := range doc[kind] {
				out = append(out, label(v, a.ID))
			}
		}
		service.WriteJSON(w, http.StatusOK, map[string]any{kind: out})
	}
}

func (r *Router) handleStats(w http.ResponseWriter, req *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.FederatedStats(req.Context()))
}

// handleStream is the federated live feed: every node's SSE events,
// node-labelled, multiplexed through the gateway hub, plus a periodic
// merged cluster-stats event the per-node streams cannot provide.
func (r *Router) handleStream(w http.ResponseWriter, req *http.Request) {
	service.ServeStream(w, req, r.hub, service.StreamInterval, service.HeartbeatInterval, "cluster",
		func() any { return r.FederatedStats(req.Context()) })
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
	ring := r.ring.Load()
	service.WriteJSON(w, http.StatusOK, map[string]any{
		"members":       r.members.Snapshot(),
		"ring":          map[string]any{"nodes": ring.Nodes(), "vnodes": ring.VNodes()},
		"gateway":       r.Counters(),
		"in_flight":     r.live(r.jobs),
		"live_sessions": r.live(r.sessions),
	})
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
