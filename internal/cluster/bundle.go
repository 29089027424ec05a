package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/internal/service"
)

// NodeBundle is one member's contribution to the cluster postmortem: its
// node-stamped GET /v1/debug/bundle document, or an explicit error when
// the node could not answer. Unlike federated stats — where a down node
// silently contributes nothing to the merged window — a postmortem must
// say which nodes are missing: the gap is usually the story.
type NodeBundle struct {
	ID    string    `json:"id"`
	State NodeState `json:"state"`
	// Error is set when the node's bundle could not be collected; Bundle
	// is then absent.
	Error  string          `json:"error,omitempty"`
	Bundle json.RawMessage `json:"bundle,omitempty"`
}

// ClusterBundle is the gateway's GET /v1/debug/bundle document: every
// node's postmortem bundle side by side with the gateway's own view of
// the cluster at collection time (membership, ring, routing counters,
// in-flight jobs).
type ClusterBundle struct {
	Now     time.Time     `json:"now"`
	Gateway gatewayBundle `json:"gateway"`
	Nodes   []NodeBundle  `json:"nodes"`
}

// gatewayBundle is the gateway's own slice of the postmortem.
type gatewayBundle struct {
	Counters GatewayCounters `json:"counters"`
	Members  []MemberStatus  `json:"members"`
	Ring     ringDoc         `json:"ring"`
	InFlight int             `json:"in_flight"`
}

type ringDoc struct {
	Nodes  []string `json:"nodes"`
	VNodes int      `json:"vnodes"`
}

// FederatedBundle collects every member's postmortem bundle concurrently.
// Collection is best-effort per node: an unreachable or down member yields
// a NodeBundle with its error set, never a collection failure — a partial
// postmortem beats none at exactly the moment part of the cluster is
// misbehaving.
func (r *Router) FederatedBundle(ctx context.Context) ClusterBundle {
	members := r.members.Snapshot()
	ring := r.ring.Load()
	out := ClusterBundle{
		Now: time.Now(),
		Gateway: gatewayBundle{
			Counters: r.Counters(),
			Members:  members,
			Ring:     ringDoc{Nodes: ring.Nodes(), VNodes: ring.VNodes()},
			InFlight: r.live(r.jobs),
		},
		Nodes: make([]NodeBundle, len(members)),
	}
	for i, a := range r.getEach(ctx, members, "/v1/debug/bundle") {
		nb := &out.Nodes[i]
		*nb = NodeBundle{ID: a.ID, State: a.State}
		switch {
		case a.State == NodeDown:
			nb.Error = "node down"
			if a.LastErr != "" {
				nb.Error += ": " + a.LastErr
			}
		case a.err != nil:
			nb.Error = "bundle fetch failed: " + a.err.Error()
		case a.resp.status != http.StatusOK:
			nb.Error = fmt.Sprintf("bundle fetch failed: status %d", a.resp.status)
		case !json.Valid(a.resp.body):
			nb.Error = "bundle fetch failed: invalid JSON"
		default:
			nb.Bundle = a.resp.body
		}
	}
	return out
}

// handleBundle serves the cluster postmortem. Always 200: collection
// failures are explicit per-node entries, never a gateway error.
func (r *Router) handleBundle(w http.ResponseWriter, req *http.Request) {
	service.WriteJSON(w, http.StatusOK, r.FederatedBundle(req.Context()))
}
