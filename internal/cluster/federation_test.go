package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestClusterFederatedStats: GET /v1/stats on the gateway relays every
// node's snapshot side by side, each labelled with its own id, beside the
// gateway's state.
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

	fed := tc.federated(t, "/v1/stats")
	if len(fed.Nodes) != 2 {
		t.Fatalf("stats cover %d nodes, want 2", len(fed.Nodes))
	}
	stats := fed.nodeStats(t)
	for _, nd := range fed.Nodes {
		st := stats[nd.ID]
		if st == nil {
			t.Fatalf("node %s missing snapshot: %s", nd.ID, nd.Error)
		}
		if st.Node != nd.ID {
			t.Errorf("node %s snapshot labelled %q", nd.ID, st.Node)
		}
		if st.Exec["simulate"].Count == 0 {
			t.Errorf("node %s reports no executions", nd.ID)
		}
	}
	if fed.Gateway.Gateway.Submits == 0 || len(fed.Gateway.Members) != 2 {
		t.Errorf("gateway state incomplete in federated stats: %+v", fed.Gateway)
	}

	// A running job shows in the worker gauges of the node that runs it,
	// whose utilization is its own busy workers over its own two.
	status, slow := tc.submit(t, `{"type":"simulate","simulate":{"kind":"bulk","n":64,"steps":4000,"tasks":2}}`)
	if status != http.StatusAccepted {
		t.Fatalf("slow submit: status %d", status)
	}
	waitFor(t, 60*time.Second, "a busy worker on the slow job's node", func() bool {
		stats = tc.federated(t, "/v1/stats").nodeStats(t)
		return stats[slow.Node] != nil && stats[slow.Node].Workers.Busy > 0
	})
	for id, st := range stats {
		if w := st.Workers; w.Total != 2 || w.Utilization != float64(w.Busy)/2 {
			t.Errorf("node %s worker gauges %+v, want utilization busy/2", id, w)
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
// node's events with a leading "node" label, plus periodic "gateway"
// events carrying the gateway's state.
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

	want := map[string]bool{"gateway": false, "n1": false, "n2": false}
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
			if event == "gateway" {
				want["gateway"] = true
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

// startStatsStub is a member that answers its probes under id and GET
// /v1/stats with doc, counting the stats reads in reads; it serves nothing
// else.
func startStatsStub(t *testing.T, id, doc string, reads *atomic.Int64) (Member, *httptest.Server) {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		_, _ = fmt.Fprintf(w, `{"status":"ok","node":%q}`, id)
	})
	mux.HandleFunc("GET /v1/stats", func(w http.ResponseWriter, req *http.Request) {
		reads.Add(1)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(doc))
	})
	ts := httptest.NewServer(mux)
	return Member{ID: id, URL: ts.URL}, ts
}

// TestGatewayStreamAsksNoNodePerTick: the gateway stream's periodic event
// is the gateway's own state, so a subscriber held open for a second at
// the 100ms cadence costs the nodes no stats read; their stats reach the
// stream as their own events.
func TestGatewayStreamAsksNoNodePerTick(t *testing.T) {
	var reads atomic.Int64
	var cfg Config
	for _, id := range []string{"n1", "n2"} {
		m, ts := startStatsStub(t, id, `{"node":"`+id+`"}`, &reads)
		t.Cleanup(ts.Close)
		cfg.Members = append(cfg.Members, m)
	}
	r := NewRouter(cfg)
	t.Cleanup(r.Stop)
	gw := httptest.NewServer(r.Handler())
	t.Cleanup(gw.Close)

	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, gw.URL+"/v1/stream?interval=100ms", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	events := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		if strings.HasPrefix(sc.Text(), "event: ") {
			events++
		}
	}
	if events < 5 {
		t.Fatalf("%d events in a second at a 100ms interval, want about 10", events)
	}
	if n := reads.Load(); n != 0 {
		t.Errorf("the nodes served %d stats reads to %d stream events, want 0", n, events)
	}
}

// TestClusterFederatedStatsNamesDownMember: once a member is down, the
// federated stats name it with its node-down error, and carry the
// survivor's document byte for byte as the survivor serves it — here with
// a key no stats type has and a number spelled 1.50, which a decode and
// re-encode would drop and respell.
func TestClusterFederatedStatsNamesDownMember(t *testing.T) {
	const survivorDoc = `{"node":"n1","unknown_to_the_gateway":[3,1,2],"exec":{"simulate":{"p50":1.50}}}`
	var reads atomic.Int64
	cfg := Config{HealthInterval: 50 * time.Millisecond, FailThreshold: 2}
	nodes := map[string]*httptest.Server{}
	for id, doc := range map[string]string{"n1": survivorDoc, "n2": `{"node":"n2"}`} {
		m, ts := startStatsStub(t, id, doc, &reads)
		cfg.Members = append(cfg.Members, m)
		nodes[id] = ts
	}
	tc := startGateway(t, cfg, nodes)
	tc.killNode("n2")
	waitFor(t, 30*time.Second, "n2 declared down", func() bool {
		return tc.router.Members().State("n2") == NodeDown
	})

	fed := tc.federated(t, "/v1/stats")
	if len(fed.Nodes) != 2 {
		t.Fatalf("stats cover %d nodes, want 2", len(fed.Nodes))
	}
	if dead := fed.node(t, "n2"); dead.State != NodeDown || !strings.HasPrefix(dead.Error, "node down: ") || dead.Doc != nil {
		t.Errorf("down member entry %+v, want state down, a \"node down: …\" error and no document", dead)
	}
	alive := fed.node(t, "n1")
	if alive.Error != "" || string(alive.Doc) != survivorDoc {
		t.Errorf("survivor entry (error %q) relays %s, want the survivor's document %s", alive.Error, alive.Doc, survivorDoc)
	}
}

// TestMembershipTransitions covers the up → draining → down lifecycle and
// the consecutive-failure threshold.
func TestMembershipTransitions(t *testing.T) {
	now := time.Now()
	m := NewMembership([]Member{{ID: "a", URL: "ua"}, {ID: "b", URL: "ub"}}, 2, now)

	if got := m.Ring().Nodes(); len(got) != 2 {
		t.Fatalf("routable = %v, want both members up", got)
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
	if got := m.Ring().Nodes(); len(got) != 1 || got[0] != "b" {
		t.Errorf("routable = %v, want [b]", got)
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
	if got := m.Ring().Nodes(); len(got) != 1 || got[0] != "a" {
		t.Errorf("routable = %v, want [a]", got)
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

// TestMembershipPublishesRouting: each transition Membership decides — an
// Add, a drain, a probe verdict, the failure that takes a node down —
// publishes the next routing snapshot itself, so nothing a caller forgets
// can leave routing stale.
func TestMembershipPublishesRouting(t *testing.T) {
	now := time.Now()
	m := NewMembership([]Member{{ID: "a", URL: "ua"}, {ID: "b", URL: "ub"}}, 1, now)
	routes := func(step string, want ...string) {
		t.Helper()
		if got := m.Ring().Nodes(); !reflect.DeepEqual(got, want) {
			t.Errorf("after %s: routing snapshot %v, want %v", step, got, want)
		}
	}
	routes("start", "a", "b")
	m.Add(Member{ID: "c", URL: "uc"}, now)
	routes("Add c", "a", "b", "c")
	m.ReportDraining("b", now)
	routes("ReportDraining b", "a", "c")
	m.reportIf("b", m.generation("b"), NodeUp, now)
	routes("reportIf b up", "a", "b", "c")
	m.ReportFailure("a", "gone", now)
	routes("ReportFailure a", "b", "c")
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
