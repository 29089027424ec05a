package cluster

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// TestClusterKillNodeMidRun is the cluster's crash-safety contract, end to
// end: a 3-node cluster accepts a batch of long jobs, one node dies with
// work in flight, and every accepted job still completes exactly once —
// the dead shard's fingerprints are re-submitted to the survivors with no
// duplicates and no losses, the federated stats converge on the surviving
// shards, and the batch's results are all cache hits afterwards.
func TestClusterKillNodeMidRun(t *testing.T) {
	tc := startCluster(t, Config{
		HealthInterval: 50 * time.Millisecond,
		FailThreshold:  2,
	}, "n1", "n2", "n3")

	const jobs = 6
	ids := make([]string, jobs)
	bodies := make([]string, jobs)
	nodeOf := map[string]string{}
	for i := 0; i < jobs; i++ {
		bodies[i] = slowBody(i)
		status, v := tc.submit(t, bodies[i])
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
		ids[i] = v.ID
		nodeOf[v.ID] = v.Node
	}

	// Kill the node holding the most in-flight work. The jobs run long
	// enough (hundreds of ms at minimum) that none has finished yet.
	counts := map[string]int{}
	for _, n := range nodeOf {
		counts[n]++
	}
	victim, onVictim := "", 0
	for id, c := range counts {
		if c > onVictim {
			victim, onVictim = id, c
		}
	}
	tc.killNode(victim)

	waitFor(t, 10*time.Second, "victim marked down", func() bool {
		return tc.router.Members().State(victim) == NodeDown
	})

	// Every accepted job completes through the gateway — rerouted ids keep
	// answering via their forwarding entry.
	for _, id := range ids {
		tc.waitDone(t, id)
	}

	c := tc.router.Counters()
	if c.Reroutes != uint64(onVictim) {
		t.Errorf("Reroutes = %d, want %d (one per fingerprint in flight on the dead node)", c.Reroutes, onVictim)
	}
	if c.Deduped != 0 {
		t.Errorf("Deduped = %d, want 0 (all fingerprints distinct)", c.Deduped)
	}

	// Exactly once: the survivors hold precisely the original batch — their
	// own jobs plus one rerouted job per dead fingerprint. A duplicate
	// re-submission or a lost job would change the count.
	total := 0
	for id, ts := range tc.nodes {
		if id == victim {
			continue
		}
		total += nodeJobCount(t, ts)
	}
	if total != jobs {
		t.Errorf("jobs across survivors = %d, want %d (duplicate or lost reroute)", total, jobs)
	}

	// Federated stats converge on the surviving shards: the dead node is
	// named down without a document, and the survivors' simulate exec
	// counts add up to exactly the batch (every job executed once, all on
	// survivors).
	fed := tc.federated(t, "/v1/stats")
	if len(fed.Nodes) != 3 {
		t.Fatalf("federated stats cover %d nodes, want 3", len(fed.Nodes))
	}
	stats := fed.nodeStats(t)
	var execs uint64
	for _, nd := range fed.Nodes {
		if nd.ID == victim {
			if nd.State != NodeDown || !strings.HasPrefix(nd.Error, "node down") || nd.Doc != nil {
				t.Errorf("victim entry %+v, want down with a node-down error and no document", nd)
			}
			continue
		}
		st := stats[nd.ID]
		if st == nil {
			t.Errorf("survivor %s missing from federated stats: %s", nd.ID, nd.Error)
			continue
		}
		if st.Node != nd.ID {
			t.Errorf("survivor %s snapshot labelled %q", nd.ID, st.Node)
		}
		execs += st.Exec["simulate"].Count
	}
	if execs != jobs {
		t.Errorf("survivors' simulate exec counts add up to %d, want %d (each job exactly once)", execs, jobs)
	}
	if fed.Gateway.InFlight != 0 {
		t.Errorf("gateway still counts %d in flight after all polls", fed.Gateway.InFlight)
	}

	// Cache hit-rate preserved: resubmitting the batch hits the surviving
	// shards' caches — including the rerouted fingerprints, whose results
	// now live on their new owners.
	for i, body := range bodies {
		status, v := tc.submit(t, body)
		if status != http.StatusOK || !v.CacheHit {
			t.Errorf("resubmit %d after node death: status %d, cache_hit %v (want 200, true)", i, status, v.CacheHit)
		}
		if v.Node == victim {
			t.Errorf("resubmit %d answered by the dead node", i)
		}
	}
}

// TestClusterDrainGraceful: draining a node through the gateway reroutes
// new traffic immediately (no client ever sees a 503), while the draining
// node's in-flight jobs finish where they are and stay pollable.
func TestClusterDrainGraceful(t *testing.T) {
	tc := startCluster(t, Config{HealthInterval: 50 * time.Millisecond}, "n1", "n2", "n3")

	var inflight []gwView
	for i := 0; i < 3; i++ {
		status, v := tc.submit(t, slowBody(100+i))
		if status != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, status)
		}
		inflight = append(inflight, v)
	}
	victim := inflight[0].Node

	resp, err := testClient.Post(tc.gw.URL+"/v1/nodes/"+victim+"/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
	if st := tc.router.Members().State(victim); st != NodeDraining {
		t.Fatalf("victim state %s immediately after drain, want draining", st)
	}
	for _, n := range tc.router.Members().Ring().Nodes() {
		if n == victim {
			t.Fatalf("ring still routes to the draining node")
		}
	}

	// New traffic reroutes with no shed: every submission is accepted by a
	// remaining up node, never the draining one, never a 503.
	for i := 0; i < 8; i++ {
		status, v := tc.submit(t, fastBody(50+i))
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit during drain: status %d (drain must not surface errors)", status)
		}
		if v.Node == victim {
			t.Fatalf("submission %d routed to the draining node", i)
		}
		tc.waitDone(t, v.ID)
	}

	// In-flight jobs on the draining node complete there and stay reachable
	// through the gateway.
	for _, v := range inflight {
		done := tc.waitDone(t, v.ID)
		if done.Node != v.Node {
			t.Errorf("job %s moved from %s to %s during a graceful drain", v.ID, v.Node, done.Node)
		}
	}

	// The gateway stays healthy on the remaining up nodes.
	resp, err = testClient.Get(tc.gw.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("gateway healthz %d during drain, want 200", resp.StatusCode)
	}
}

// TestNodeDownedBySubmitsIsRehomed: whoever's failure report takes a member
// down, what it held is re-homed. A node dies holding one slow job (one
// long session); before the health sweep has probed it twice, a burst of
// client submissions (session creates) fails against it and crosses
// FailThreshold from the routing path. The sweep must still re-home the
// orphan: before the fix it saw an already-down member, ReportFailure
// answered false, and the job's poll said 502 for good.
func TestNodeDownedBySubmitsIsRehomed(t *testing.T) {
	cfg := Config{HealthInterval: 300 * time.Millisecond, FailThreshold: 2}

	// burst submits distinct cheap work until the routing path's own failure
	// reports have turned the victim down (every refused dispatch fails over
	// to the survivor, so each submission is still accepted).
	burst := func(t *testing.T, tc *testCluster, victim string, submit func(i int) int) {
		t.Helper()
		for i := 0; tc.router.Members().State(victim) != NodeDown; i++ {
			if i == 64 {
				t.Fatalf("64 submissions after the kill and %s is still %s", victim, tc.router.Members().State(victim))
			}
			if status := submit(i); status != http.StatusAccepted && status != http.StatusOK {
				t.Fatalf("burst submission %d: status %d, want it accepted on the survivor", i, status)
			}
		}
	}

	t.Run("job", func(t *testing.T) {
		tc := startCluster(t, cfg, "n1", "n2")
		status, slow := tc.submit(t, slowBody(0))
		if status != http.StatusAccepted {
			t.Fatalf("submit: status %d", status)
		}
		tc.killNode(slow.Node)
		burst(t, tc, slow.Node, func(i int) int {
			status, _ := tc.submit(t, fastBody(i))
			return status
		})
		waitFor(t, 10*time.Second, "the orphaned job rerouted", func() bool {
			return tc.router.Counters().Reroutes == 1
		})
		if done := tc.waitDone(t, slow.ID); done.Node == slow.Node {
			t.Errorf("job %s finished on the dead node %s", slow.ID, slow.Node)
		}
	})

	t.Run("session", func(t *testing.T) {
		tc := startSessionCluster(t, cfg, "n1", "n2")
		status, long := tc.createSession(t, `{"simulate":{"kind":"bulk","n":16,"steps":3000},"segment":300}`)
		if status != http.StatusAccepted {
			t.Fatalf("create: status %d", status)
		}
		tc.killNode(long.Node)
		burst(t, tc, long.Node, func(i int) int {
			status, _ := tc.createSession(t,
				fmt.Sprintf(`{"simulate":{"kind":"bulk","n":8,"steps":%d},"segment":2}`, 2+i))
			return status
		})
		waitFor(t, 10*time.Second, "the orphaned session resumed", func() bool {
			return tc.router.Counters().SessionResumes == 1
		})
		if v := tc.getSession(t, long.ID); v.Node == long.Node || v.TraceID != long.TraceID {
			t.Errorf("old id answers from %s under trace %s, want the survivor and trace %s",
				v.Node, v.TraceID, long.TraceID)
		}
	})
}

// TestForwardFailuresCountTowardDown: a proxied poll that cannot reach the
// owner is evidence against it like a failed dispatch or probe. With the
// health sweep out of the picture, FailThreshold unreachable polls turn the
// owner down and take it off the ring, so the 502 window closes after
// FailThreshold polls instead of lasting until the sweep notices.
func TestForwardFailuresCountTowardDown(t *testing.T) {
	tc := startCluster(t, Config{HealthInterval: time.Hour, FailThreshold: 2}, "n1", "n2")
	status, v := tc.submit(t, slowBody(1))
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d", status)
	}
	tc.killNode(v.Node)
	for i := 0; i < 2; i++ {
		if st := tc.router.Members().State(v.Node); st != NodeUp {
			t.Fatalf("owner %s before poll %d", st, i)
		}
		resp, err := testClient.Get(tc.gw.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("poll %d of a dead owner: status %d, want 502", i, resp.StatusCode)
		}
	}
	if st := tc.router.Members().State(v.Node); st != NodeDown {
		t.Fatalf("owner %s after two unreachable polls, want down", st)
	}
	for _, n := range tc.router.Members().Ring().Nodes() {
		if n == v.Node {
			t.Fatal("ring still routes to the downed owner")
		}
	}
}
