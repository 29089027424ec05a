package cluster

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/service"
)

// startFlightCluster is startCluster with the nodes' anomaly engines
// configured: every node runs the given flight rules, so short tests can
// use thresholds the defaults would never trip.
func startFlightCluster(t *testing.T, cfg Config, rules flight.Rules, ids ...string) *testCluster {
	t.Helper()
	nodes := map[string]*httptest.Server{}
	for _, id := range ids {
		s := service.New(service.Config{
			NodeID:       id,
			DrainTimeout: 2 * time.Minute,
			FlightRules:  rules,
		})
		ts := httptest.NewServer(s.Handler())
		cfg.Members = append(cfg.Members, Member{ID: id, URL: ts.URL})
		nodes[id] = ts
	}
	return startGateway(t, cfg, nodes)
}

// TestClusterBundlePartialOnNodeDown: a node lost mid-collection yields a
// partial postmortem with an explicit per-node error entry — never a
// gateway 5xx. Both failure shapes are covered: the fetch that dies
// against a just-severed listener, and the entry for a member already
// declared down.
func TestClusterBundlePartialOnNodeDown(t *testing.T) {
	tc := startCluster(t, Config{
		HealthInterval: 50 * time.Millisecond,
		FailThreshold:  2,
	}, "n1", "n2")

	tc.killNode("n2")

	// Immediately after the kill the member is still listed up, so the
	// gateway actually dials it and must fold the refusal into the entry.
	b := tc.federated(t, "/v1/debug/bundle")
	if len(b.Nodes) != 2 {
		t.Fatalf("bundle lists %d nodes, want 2", len(b.Nodes))
	}
	dead := b.node(t, "n2")
	if dead.Error == "" || dead.Doc != nil {
		t.Fatalf("dead node entry not an explicit error: %+v", dead)
	}

	// Once health checks declare it down, the entry says so without a dial.
	waitFor(t, 30*time.Second, "n2 declared down", func() bool {
		return tc.router.members.State("n2") == NodeDown
	})
	b = tc.federated(t, "/v1/debug/bundle")
	dead = b.node(t, "n2")
	if !strings.HasPrefix(dead.Error, "node down") || dead.Doc != nil {
		t.Fatalf("down node entry = %+v, want explicit node-down error", dead)
	}

	// The survivor's bundle is intact and node-stamped.
	alive := b.node(t, "n1")
	if alive.Error != "" || alive.Doc == nil {
		t.Fatalf("survivor entry incomplete: error %q, bundle present %v", alive.Error, alive.Doc != nil)
	}
	var doc service.BundleDoc
	if err := json.Unmarshal(alive.Doc, &doc); err != nil {
		t.Fatalf("survivor bundle not a bundle doc: %v", err)
	}
	if doc.Node != "n1" {
		t.Fatalf("survivor bundle stamped %q, want n1", doc.Node)
	}
	if len(b.Gateway.Members) != 2 || len(b.Gateway.Ring.Nodes) == 0 {
		t.Fatalf("gateway section incomplete: %d members, ring %v", len(b.Gateway.Members), b.Gateway.Ring.Nodes)
	}
}

// sseFrames collects complete (event, data) frames from a gateway stream.
type sseFrames struct {
	mu     sync.Mutex
	frames [][2]string
	done   chan struct{}
}

func followFrames(resp *http.Response) *sseFrames {
	f := &sseFrames{done: make(chan struct{})}
	go func() {
		defer close(f.done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		var event string
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = strings.TrimPrefix(line, "event: ")
			case strings.HasPrefix(line, "data: "):
				f.mu.Lock()
				f.frames = append(f.frames, [2]string{event, strings.TrimPrefix(line, "data: ")})
				f.mu.Unlock()
			}
		}
	}()
	return f
}

// find returns the data of the first collected frame with the given event
// name whose payload contains every needle.
func (f *sseFrames) find(event string, needles ...string) (string, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
outer:
	for _, fr := range f.frames {
		if fr[0] != event {
			continue
		}
		for _, n := range needles {
			if !strings.Contains(fr[1], n) {
				continue outer
			}
		}
		return fr[1], true
	}
	return "", false
}

// TestClusterDriftAnomalyEndToEnd is the postmortem pipeline end to end: a
// hybrid-overlap job whose measured overlap is judged against a drift band
// far tighter than any real run meets (the README's -drift walkthrough)
// runs through a 2-node cluster; the owner's drift rule fires; the anomaly
// shows up in the owner's document in the gateway's federated stats and on
// its SSE stream node-labelled; and the gateway's cluster bundle carries
// the owner's frozen flight snapshot holding the triggering job's trace id.
func TestClusterDriftAnomalyEndToEnd(t *testing.T) {
	rules := flight.Rules{DriftTolerance: 0.01}
	tc := startFlightCluster(t, Config{
		HealthInterval: 50 * time.Millisecond,
		FailThreshold:  3,
	}, rules, "n1", "n2")

	resp, err := http.Get(tc.gw.URL + "/v1/stream?interval=1h") // open for the whole test: no request timeout fits an event stream
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := followFrames(resp)
	// The gateway's node-stream watchers re-publish per-node stats events;
	// seeing one from each node proves the fan-in is attached, so the
	// one-shot anomaly event cannot slip past it.
	waitFor(t, 30*time.Second, "gateway watching both node streams", func() bool {
		_, n1 := frames.find("stats", `"node":"n1"`)
		_, n2 := frames.find("stats", `"node":"n2"`)
		return n1 && n2
	})

	status, v := tc.submit(t, `{"type":"simulate","simulate":{"kind":"hybrid-overlap","n":48,"steps":40,"tasks":2,"trace":true}}`)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	if v.TraceID == "" {
		t.Fatal("traced submission returned no trace_id")
	}
	done := tc.waitDone(t, v.ID)
	owner := done.Node

	// The drift firing reaches the owner's document in the federated
	// stats with the job's identity.
	var fired *flight.Anomaly
	waitFor(t, 30*time.Second, "drift anomaly in the owner's stats", func() bool {
		st := tc.federated(t, "/v1/stats").nodeStats(t)[owner]
		if st == nil || st.Anomalies == nil {
			return false
		}
		for i, a := range st.Anomalies.Recent {
			if a.Rule == flight.RuleModelDrift && a.TraceID == v.TraceID {
				fired = &st.Anomalies.Recent[i]
			}
		}
		return fired != nil
	})
	if fired.JobID != v.ID || fired.Expected <= fired.Value {
		t.Fatalf("anomaly misattributed: %+v (job %s)", fired, v.ID)
	}

	// The same firing arrived on the live stream, node-labelled.
	waitFor(t, 30*time.Second, "anomaly event on gateway stream", func() bool {
		_, ok := frames.find("anomaly", v.TraceID)
		return ok
	})
	data, _ := frames.find("anomaly", v.TraceID)
	for _, want := range []string{`"node":"` + owner + `"`, `"rule":"` + flight.RuleModelDrift + `"`, v.ID} {
		if !strings.Contains(data, want) {
			t.Errorf("anomaly event missing %s:\n%s", want, data)
		}
	}

	// The cluster postmortem holds the owner's frozen flight snapshot.
	b := tc.federated(t, "/v1/debug/bundle")
	var doc service.BundleDoc
	nb := b.node(t, owner)
	if nb.Error != "" || nb.Doc == nil {
		t.Fatalf("owner bundle entry incomplete: %+v", nb)
	}
	if err := json.Unmarshal(nb.Doc, &doc); err != nil {
		t.Fatalf("decode owner bundle: %v", err)
	}
	if doc.Node != owner {
		t.Fatalf("owner bundle stamped %q, want %s", doc.Node, owner)
	}
	var snap *flight.Snapshot
	for i, s := range doc.Frozen {
		if s.Reason == flight.RuleModelDrift {
			snap = &doc.Frozen[i]
		}
	}
	if snap == nil {
		t.Fatalf("no frozen %s snapshot in owner bundle (%d frozen)", flight.RuleModelDrift, len(doc.Frozen))
	}
	traced := false
	for _, rec := range snap.Records {
		if rec.TraceID == v.TraceID {
			traced = true
		}
	}
	if !traced {
		t.Fatalf("frozen snapshot has no record with trace %s (%d records)", v.TraceID, len(snap.Records))
	}
	// The bystander node contributed a clean bundle of its own.
	other := "n1"
	if owner == "n1" {
		other = "n2"
	}
	if nb := b.node(t, other); nb.Error != "" || nb.Doc == nil {
		t.Fatalf("bystander bundle entry incomplete: %+v", nb)
	}

	resp.Body.Close()
	<-frames.done
}
