package cluster

import (
	"context"
	"net/http"
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
	// retries, failovers), next to the per-node windows it fronts.
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
	answers := r.getEach(ctx, r.members.Snapshot(), "/v1/stats")
	out := ClusterStats{Now: time.Now(), Nodes: make([]NodeStats, 0, len(answers))}
	for _, a := range answers {
		ns := NodeStats{ID: a.ID, State: a.State}
		if a.State != NodeDown {
			var st service.TelemetryStats
			err := a.err
			if err == nil {
				err = a.resp.expect("stats", http.StatusOK, &st)
			}
			if err != nil {
				ns.Error = err.Error()
			} else {
				// The cluster view is a fold of the node documents over the
				// zero document, which belongs to no node.
				ns.Stats = &st
				out.Cluster = out.Cluster.Merge(st)
			}
		}
		out.Nodes = append(out.Nodes, ns)
	}
	out.Gateway = r.Counters()
	out.GatewayWindow = r.tele.Stats(out.Now)
	out.InFlight = r.live(r.jobs)
	out.LiveSessions = r.live(r.sessions)
	return out
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
// the one "ask every node" loop of the federated documents.
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
