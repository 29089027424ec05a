package cluster

import (
	"io"
	"net/http"
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
	// reported down without a snapshot, and the merged execution count is
	// exactly the batch (every job executed once, all on survivors).
	stats := tc.clusterStats(t)
	if len(stats.Nodes) != 3 {
		t.Fatalf("federated stats cover %d nodes, want 3", len(stats.Nodes))
	}
	for _, ns := range stats.Nodes {
		if ns.ID == victim {
			if ns.State != NodeDown {
				t.Errorf("victim reported %s, want down", ns.State)
			}
			if ns.Stats != nil {
				t.Errorf("victim contributed a snapshot after death")
			}
		} else {
			if ns.Stats == nil {
				t.Errorf("survivor %s missing from federated stats: %s", ns.ID, ns.Error)
			} else if ns.Stats.Node != ns.ID {
				t.Errorf("survivor %s snapshot labelled %q", ns.ID, ns.Stats.Node)
			}
		}
	}
	if got := stats.Cluster.Exec["simulate"].Count; got != jobs {
		t.Errorf("merged exec count = %d, want %d (each job exactly once)", got, jobs)
	}
	if stats.InFlight != 0 {
		t.Errorf("gateway still counts %d in flight after all polls", stats.InFlight)
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
	for _, n := range tc.router.Ring().Nodes() {
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
