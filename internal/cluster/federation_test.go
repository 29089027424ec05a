package cluster

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestClusterFederatedStats: GET /v1/stats on the gateway reports every
// node's snapshot side by side, labelled, and a merged cluster view whose
// counts are the exact sum of the per-node counts.
func TestClusterFederatedStats(t *testing.T) {
	tc := startCluster(t, Config{}, "n1", "n2")

	// Land at least one executed job on every node (the ring decides, so
	// walk distinct problems until both shards have seen work).
	needed := map[string]bool{"n1": true, "n2": true}
	for i := 0; i < 40 && len(needed) > 0; i++ {
		status, v := tc.submit(t, fastBody(200+i))
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, status)
		}
		tc.waitDone(t, v.ID)
		delete(needed, v.Node)
	}
	if len(needed) > 0 {
		t.Fatalf("could not land a job on every node: %v", needed)
	}

	stats := tc.clusterStats(t)
	if len(stats.Nodes) != 2 {
		t.Fatalf("stats cover %d nodes, want 2", len(stats.Nodes))
	}
	var sum uint64
	for _, ns := range stats.Nodes {
		if ns.Stats == nil {
			t.Fatalf("node %s missing snapshot: %s", ns.ID, ns.Error)
		}
		if ns.Stats.Node != ns.ID {
			t.Errorf("node %s snapshot labelled %q", ns.ID, ns.Stats.Node)
		}
		if ns.Stats.Exec["simulate"].Count == 0 {
			t.Errorf("node %s reports no executions", ns.ID)
		}
		sum += ns.Stats.Exec["simulate"].Count
	}
	if got := stats.Cluster.Exec["simulate"].Count; got != sum {
		t.Errorf("merged exec count = %d, want the per-node sum %d", got, sum)
	}
	if stats.Cluster.Node != "" {
		t.Errorf("merged view labelled %q, want no node", stats.Cluster.Node)
	}
	if stats.Gateway.Submits == 0 {
		t.Errorf("gateway counters missing from federated stats")
	}

	// A running job shows in the worker gauges of its node and of the merged
	// view, whose utilization is re-derived from the summed workers (two
	// nodes of two), not copied from one node.
	status, slow := tc.submit(t, `{"type":"simulate","simulate":{"kind":"bulk","n":64,"steps":4000,"tasks":2}}`)
	if status != http.StatusAccepted {
		t.Fatalf("slow submit: status %d", status)
	}
	waitFor(t, 60*time.Second, "a busy worker in the merged view", func() bool {
		stats = tc.clusterStats(t)
		return stats.Cluster.Workers.Busy > 0
	})
	w := stats.Cluster.Workers
	if w.Total != 4 || w.Utilization != float64(w.Busy)/4 {
		t.Errorf("merged worker gauges %+v, want utilization busy/4", w)
	}
	for _, ns := range stats.Nodes {
		if nw := ns.Stats.Workers; nw.Utilization != float64(nw.Busy)/2 {
			t.Errorf("node %s worker gauges %+v, want utilization busy/2", ns.ID, nw)
		}
	}
	req, _ := http.NewRequest(http.MethodDelete, tc.gw.URL+"/v1/jobs/"+slow.ID, nil)
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
}

// TestClusterFederatedStream: the gateway SSE stream multiplexes every
// node's events with a leading "node" label, plus periodic merged cluster
// events no single node could emit.
func TestClusterFederatedStream(t *testing.T) {
	tc := startCluster(t, Config{}, "n1", "n2")

	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, tc.gw.URL+"/v1/stream?interval=100ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	want := map[string]bool{"cluster": false, "n1": false, "n2": false}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "cluster" {
				want["cluster"] = true
			}
			// Node events are relabelled with a leading "node" field.
			for _, id := range []string{"n1", "n2"} {
				if strings.HasPrefix(data, `{"node":"`+id+`"`) {
					want[id] = true
				}
			}
		}
		done := true
		for _, seen := range want {
			done = done && seen
		}
		if done {
			return
		}
	}
	t.Fatalf("stream ended before seeing every source: %v (scan err %v)", want, sc.Err())
}

// TestMembershipTransitions covers the up → draining → down lifecycle and
// the consecutive-failure threshold.
func TestMembershipTransitions(t *testing.T) {
	now := time.Now()
	m := NewMembership([]Member{{ID: "a", URL: "ua"}, {ID: "b", URL: "ub"}}, 2, now)

	if got := m.Routable(); len(got) != 2 {
		t.Fatalf("Routable = %v, want both members up", got)
	}
	if m.ReportFailure("a", "boom", now) {
		t.Fatalf("first failure below the threshold must not take the node down")
	}
	if st := m.State("a"); st != NodeUp {
		t.Fatalf("state after one failure = %s, want up", st)
	}
	if !m.ReportFailure("a", "boom", now) {
		t.Fatalf("second consecutive failure must report the down transition")
	}
	if m.ReportFailure("a", "boom", now) {
		t.Fatalf("already-down node must not report the transition again")
	}
	if got := m.Routable(); len(got) != 1 || got[0] != "b" {
		t.Errorf("Routable = %v, want [b]", got)
	}

	// A healthy probe resurrects the node and clears the failure count.
	if !m.reportIf("a", m.generation("a"), NodeUp, now) {
		t.Fatalf("recovery must report a state change")
	}
	if st := m.Snapshot()[0]; st.ID != "a" || st.Fails != 0 {
		t.Errorf("member %s fails = %d after recovery, want a with 0", st.ID, st.Fails)
	}

	// A draining node is no longer routable.
	if !m.ReportDraining("b", now) {
		t.Fatalf("drain must report a state change")
	}
	if m.ReportDraining("b", now) {
		t.Fatalf("repeated drain report must be a no-op")
	}
	if got := m.Routable(); len(got) != 1 || got[0] != "a" {
		t.Errorf("Routable = %v, want [a]", got)
	}

	// Unknown ids are inert; Add refuses duplicates and admits new members.
	if m.State("zz") != "" || m.ReportFailure("zz", "x", now) {
		t.Errorf("unknown member must be inert")
	}
	if m.Add(Member{ID: "a", URL: "dup"}, now) {
		t.Errorf("re-adding an existing member must fail")
	}
	if !m.Add(Member{ID: "c", URL: "uc"}, now) {
		t.Errorf("adding a new member must succeed")
	}
	if st := m.State("c"); st != NodeUp {
		t.Errorf("new member state = %s, want up", st)
	}
}

// TestGatewayHealthzDegraded: with no routable member left, the gateway's
// own healthz flips to 503 and submissions answer 503 instead of hanging.
func TestGatewayHealthzDegraded(t *testing.T) {
	r := NewRouter(Config{Members: []Member{{ID: "a", URL: "http://127.0.0.1:0"}}, FailThreshold: 1})
	gw := httptest.NewServer(r.Handler())
	t.Cleanup(gw.Close)

	resp, err := testClient.Get(gw.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d with an (optimistically) up member, want 200", resp.StatusCode)
	}

	r.Members().ReportFailure("a", "gone", time.Now())
	r.rebuildRing()

	resp, err = testClient.Get(gw.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz = %d with every member down, want 503", resp.StatusCode)
	}

	resp, err = testClient.Post(gw.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"type":"simulate","simulate":{"kind":"bulk","n":16,"steps":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit with no nodes = %d, want 503", resp.StatusCode)
	}
}
