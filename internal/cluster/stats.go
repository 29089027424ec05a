package cluster

import (
	"context"
	"sync"
	"time"

	"repro/internal/service"
)

// NodeStats is one member's contribution to the federated stats document.
type NodeStats struct {
	ID    string    `json:"id"`
	State NodeState `json:"state"`
	// Error is set when the node's snapshot could not be fetched; Stats is
	// then nil and the node contributes nothing to the merged view.
	Error string                  `json:"error,omitempty"`
	Stats *service.TelemetryStats `json:"stats,omitempty"`
}

// ClusterStats is the gateway's GET /v1/stats document: every reachable
// node's rolling-window snapshot side by side, plus one merged cluster
// view folded with service.TelemetryStats.Merge (counts/sums exact,
// quantiles count-weighted estimates) and the gateway's own routing
// counters.
type ClusterStats struct {
	Now     time.Time              `json:"now"`
	Nodes   []NodeStats            `json:"nodes"`
	Cluster service.TelemetryStats `json:"cluster"`
	Gateway GatewayCounters        `json:"gateway"`
	// GatewayWindow is the gateway's own rolling telemetry (route latency,
	// peek hit rate, failovers), next to the per-node windows it fronts.
	GatewayWindow GatewayWindowStats `json:"gateway_window"`
	// InFlight is how many accepted jobs the gateway still considers
	// unfinished (terminal states not yet observed by a poll).
	InFlight int `json:"in_flight"`
	// LiveSessions is how many routed sessions the gateway still considers
	// running (and therefore replicates checkpoints for).
	LiveSessions int `json:"live_sessions"`
}

// FederatedStats fans a stats fetch out to every up or draining member
// concurrently and merges the answers. A node that fails to answer is
// reported with its error instead of silently shrinking the cluster view.
func (r *Router) FederatedStats(ctx context.Context) ClusterStats {
	members := r.members.Snapshot()
	out := ClusterStats{Now: time.Now(), Nodes: make([]NodeStats, len(members))}
	var wg sync.WaitGroup
	for i, m := range members {
		out.Nodes[i] = NodeStats{ID: m.ID, State: m.State}
		if m.State == NodeDown {
			continue
		}
		wg.Add(1)
		go func(i int, url string) {
			defer wg.Done()
			st, err := r.client.stats(ctx, url)
			if err != nil {
				out.Nodes[i].Error = err.Error()
				return
			}
			out.Nodes[i].Stats = &st
		}(i, m.URL)
	}
	wg.Wait()
	// The cluster view is a fold of the node documents over the zero
	// document, which belongs to no node.
	for _, ns := range out.Nodes {
		if ns.Stats != nil {
			out.Cluster = out.Cluster.Merge(*ns.Stats)
		}
	}
	out.Gateway = r.Counters()
	out.GatewayWindow = r.tele.Stats(out.Now)
	out.InFlight = r.live(r.jobs)
	out.LiveSessions = r.live(r.sessions)
	return out
}
