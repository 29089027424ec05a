package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/service"
)

// GatewayState is the gateway's document of its own state: membership,
// ring, cumulative routing counters, rolling routing windows, and the jobs
// and sessions it still tracks. GET /v1/cluster serves it, the federated
// documents lead with it, and the gateway stream sends it every interval;
// building it asks no node anything.
type GatewayState struct {
	Now     time.Time       `json:"now"`
	Members []MemberStatus  `json:"members"`
	Ring    ringDoc         `json:"ring"`
	Gateway GatewayCounters `json:"gateway"`
	// GatewayWindow is the gateway's own rolling telemetry (route latency,
	// retries, failovers).
	GatewayWindow GatewayWindowStats `json:"gateway_window"`
	// InFlight is how many accepted jobs the gateway still considers
	// unfinished (terminal states not yet observed by a poll).
	InFlight int `json:"in_flight"`
	// LiveSessions is how many routed sessions the gateway still considers
	// running (and therefore replicates checkpoints for).
	LiveSessions int `json:"live_sessions"`
}

type ringDoc struct {
	Nodes []string `json:"nodes"`
}

// state snapshots the gateway's own state.
func (r *Router) state() GatewayState {
	now := time.Now()
	return GatewayState{
		Now:           now,
		Members:       r.members.Snapshot(),
		Ring:          ringDoc{Nodes: r.members.Ring().Nodes()},
		Gateway:       r.Counters(),
		GatewayWindow: r.tele.Stats(now),
		InFlight:      r.live(r.jobs),
		LiveSessions:  r.live(r.sessions),
	}
}

// NodeDoc is one member's entry in a federated document: the node's answer
// as it served it, or the error that stands in for it. A member that could
// not answer is named with its error, never left out: the gap is often the
// story.
type NodeDoc struct {
	ID    string          `json:"id"`
	State NodeState       `json:"state"`
	Error string          `json:"error,omitempty"`
	Doc   json.RawMessage `json:"doc,omitempty"`
}

// FederatedDoc is the gateway's GET /v1/stats and GET /v1/debug/bundle
// document: its own state beside every member's answer to the same route.
// The gateway relays what each node measured and computes nothing across
// nodes: a sum or a quantile over the cluster is the reader's to take.
type FederatedDoc struct {
	Gateway GatewayState `json:"gateway"`
	Nodes   []NodeDoc    `json:"nodes"`
}

// federate GETs path from every member concurrently. Collection is
// best-effort per node: a down or failing member yields its entry with the
// error set, never a collection failure — a partial document beats none
// at exactly the moment part of the cluster is misbehaving.
func (r *Router) federate(ctx context.Context, path string) FederatedDoc {
	gw := r.state()
	out := FederatedDoc{Gateway: gw, Nodes: make([]NodeDoc, 0, len(gw.Members))}
	for _, a := range r.getEach(ctx, gw.Members, path) {
		nd := NodeDoc{ID: a.ID, State: a.State}
		switch {
		case a.State == NodeDown:
			nd.Error = "node down"
			if a.LastErr != "" {
				nd.Error += ": " + a.LastErr
			}
		case a.err != nil:
			nd.Error = "fetch failed: " + a.err.Error()
		case a.resp.status != http.StatusOK:
			nd.Error = fmt.Sprintf("fetch failed: status %d", a.resp.status)
		case !json.Valid(a.resp.body):
			nd.Error = "fetch failed: invalid JSON"
		default:
			nd.Doc = a.resp.body
		}
		out.Nodes = append(out.Nodes, nd)
	}
	return out
}

// handleFederated serves path's federated document. Always 200: a member's
// failure is its entry's error, never a gateway error.
func (r *Router) handleFederated(path string) http.HandlerFunc {
	return func(w http.ResponseWriter, req *http.Request) {
		service.WriteJSON(w, http.StatusOK, r.federate(req.Context(), path))
	}
}

// memberAnswer is one member's answer to a fanned-out GET: the node's
// response, or the transport error; a down member is not asked and has
// neither.
type memberAnswer struct {
	MemberStatus
	resp *nodeResponse
	err  error
}

// getEach GETs path from every member of members that is not down,
// concurrently, and returns each member's answer in the members' order —
// the one "ask every node" loop of the federated documents and lists.
func (r *Router) getEach(ctx context.Context, members []MemberStatus, path string) []memberAnswer {
	out := make([]memberAnswer, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		out[i].MemberStatus = m
		if m.State == NodeDown {
			continue
		}
		wg.Add(1)
		go func(a *memberAnswer) {
			defer wg.Done()
			a.resp, a.err = r.client.do(ctx, http.MethodGet, a.URL+path, nil)
		}(&out[i])
	}
	wg.Wait()
	return out
}
