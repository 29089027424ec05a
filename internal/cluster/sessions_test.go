package cluster

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/service"
	"repro/internal/session"
)

// startSessionNode boots one in-process advectd node with a session store,
// mirroring startNode for the session tests.
func startSessionNode(t *testing.T, id string) (Member, *httptest.Server) {
	t.Helper()
	s := service.New(service.Config{
		NodeID:       id,
		DrainTimeout: 2 * time.Minute,
		SessionDir:   t.TempDir(),
	})
	// Registered after TempDir's own cleanup, so it runs before it: the run
	// loops have written their last record when the directory is removed.
	t.Cleanup(func() { _ = s.Shutdown() })
	ts := httptest.NewServer(s.Handler())
	return Member{ID: id, URL: ts.URL}, ts
}

// startSessionCluster is startCluster with session-enabled nodes and a
// fast checkpoint replication sweep.
func startSessionCluster(t *testing.T, cfg Config, ids ...string) *testCluster {
	t.Helper()
	nodes := map[string]*httptest.Server{}
	for _, id := range ids {
		m, ts := startSessionNode(t, id)
		cfg.Members = append(cfg.Members, m)
		nodes[id] = ts
	}
	return startGateway(t, cfg, nodes)
}

// gwSession is the gateway's labelled session view as a client decodes it.
type gwSession struct {
	session.View
	Node string `json:"node"`
}

func (tc *testCluster) createSession(t *testing.T, body string) (int, gwSession) {
	t.Helper()
	resp, err := testClient.Post(tc.gw.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v gwSession
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode session response: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, v
}

func (tc *testCluster) getSession(t *testing.T, id string) gwSession {
	t.Helper()
	v, status := tc.pollSession(t, id)
	if status != http.StatusOK {
		t.Fatalf("session poll: status %d", status)
	}
	return v
}

// pollSession is the non-fatal variant: it hands back the status code so
// failover loops can ride out the window where the owner is dead but the
// health sweep has not yet re-homed its sessions (polls proxy to the
// corpse and 502 until the forwarding pointer exists).
func (tc *testCluster) pollSession(t *testing.T, id string) (gwSession, int) {
	t.Helper()
	resp, err := testClient.Get(tc.gw.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v gwSession
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return v, resp.StatusCode
}

// TestClusterSessionFailover is the session layer's crash contract
// (satellite of the durability e2e): a session running on one shard of a
// 2-node cluster loses its owner mid-segment; the gateway, which has been
// replicating the session's checkpoints, re-creates it on the survivor
// seeded from the last replica, the old id keeps answering through the
// forwarding chain, and the trajectory finishes under the same trace id.
func TestClusterSessionFailover(t *testing.T) {
	tc := startSessionCluster(t, Config{
		HealthInterval:      50 * time.Millisecond,
		FailThreshold:       2,
		SessionSyncInterval: 50 * time.Millisecond,
	}, "n1", "n2")

	status, created := tc.createSession(t,
		`{"simulate":{"kind":"bulk","n":16,"steps":9000},"segment":300}`)
	if status != http.StatusAccepted {
		t.Fatalf("create: status %d", status)
	}
	if created.Node == "" || created.TraceID == "" {
		t.Fatalf("created session %+v: missing node label or minted trace id", created)
	}
	owner := created.Node

	// Wait until the gateway holds a checkpoint replica, so the resume is
	// seeded rather than a from-scratch rerun.
	waitFor(t, 60*time.Second, "checkpoint replicated to gateway", func() bool {
		if v := tc.getSession(t, created.ID); v.State.Terminal() {
			t.Fatalf("session finished (%s at step %d) before the test could kill its owner; grow the problem",
				v.State, v.DoneSteps)
		}
		return tc.router.Counters().CheckpointSyncs >= 1
	})

	tc.killNode(owner)
	waitFor(t, 10*time.Second, "owner marked down", func() bool {
		return tc.router.Members().State(owner) == NodeDown
	})

	// The old id answers through the forwarding chain; the session finishes
	// on the survivor from the replicated checkpoint.
	deadline := time.Now().Add(120 * time.Second)
	var final gwSession
	for {
		v, status := tc.pollSession(t, created.ID)
		if status != http.StatusOK {
			// Dead-owner window: the sweep hasn't re-homed the session yet.
			if time.Now().After(deadline) {
				t.Fatalf("session still unreachable (status %d) after failover", status)
			}
			time.Sleep(5 * time.Millisecond)
			continue
		}
		final = v
		if final.State == session.StateDone {
			break
		}
		if final.State == session.StateFailed {
			t.Fatalf("session failed after failover: %s", final.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session stuck in %s at step %d after failover", final.State, final.DoneSteps)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if final.Node != "n1" && final.Node != "n2" {
		t.Fatalf("final node label %q", final.Node)
	}
	if final.Node == owner {
		t.Fatalf("session finished on the dead owner %s", owner)
	}
	if final.DoneSteps != 9000 {
		t.Fatalf("finished at step %d, want 9000", final.DoneSteps)
	}
	if final.Resumes < 1 {
		t.Fatal("survivor session shows no resume — it was re-run from scratch, not seeded")
	}
	if final.TraceID != created.TraceID {
		t.Fatalf("trace id changed across failover: %q -> %q (one trajectory, one trace)",
			created.TraceID, final.TraceID)
	}

	c := tc.router.Counters()
	if c.SessionResumes != 1 {
		t.Errorf("SessionResumes = %d, want 1", c.SessionResumes)
	}
	if c.SessionRoutes != 2 {
		t.Errorf("SessionRoutes = %d, want 2 (create + failover resume)", c.SessionRoutes)
	}

	// Some node's relayed stats count the finished session, and the
	// gateway no longer counts it live.
	fed := tc.federated(t, "/v1/stats")
	counted := false
	for _, st := range fed.nodeStats(t) {
		counted = counted || (st.Sessions != nil && st.Sessions.Done >= 1)
	}
	if !counted {
		t.Errorf("no node's session stats count the finished session: %+v", fed.Nodes)
	}
	if fed.Gateway.LiveSessions != 0 {
		t.Errorf("gateway still counts %d sessions live", fed.Gateway.LiveSessions)
	}
}

// TestClusterSessionRoutingAndProxy covers the calm-weather session
// surface: fingerprint routing, the merged list, pause/resume and fork
// proxies, and checkpoint reads through the gateway.
func TestClusterSessionRoutingAndProxy(t *testing.T) {
	tc := startSessionCluster(t, Config{
		HealthInterval:      50 * time.Millisecond,
		SessionSyncInterval: 50 * time.Millisecond,
	}, "n1", "n2")

	status, v := tc.createSession(t, `{"simulate":{"kind":"bulk","n":8,"steps":40},"segment":10,"retain":4}`)
	if status != http.StatusAccepted {
		t.Fatalf("create: status %d", status)
	}

	waitFor(t, 60*time.Second, "session done", func() bool {
		return tc.getSession(t, v.ID).State == session.StateDone
	})

	// Identical scenarios route to the same shard: the fingerprint owns the
	// placement, so re-creating lands where the checkpoints already live.
	status2, v2 := tc.createSession(t, `{"simulate":{"kind":"bulk","n":8,"steps":40},"segment":10,"retain":4}`)
	if status2 != http.StatusAccepted {
		t.Fatalf("re-create: status %d", status2)
	}
	if v2.Node != v.Node {
		t.Errorf("same scenario routed to %s then %s; fingerprint routing must be sticky", v.Node, v2.Node)
	}

	// Fork through the gateway: the child runs on the parent's shard.
	resp, err := testClient.Post(tc.gw.URL+"/v1/sessions/"+v.ID+"/fork", "application/json",
		strings.NewReader(`{"at_step":20,"total_steps":60,"threads":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var child gwSession
	if err := json.NewDecoder(resp.Body).Decode(&child); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("fork: status %d", resp.StatusCode)
	}
	if child.Node != v.Node {
		t.Errorf("fork child on %s, parent on %s", child.Node, v.Node)
	}
	waitFor(t, 60*time.Second, "fork child done", func() bool {
		return tc.getSession(t, child.ID).State == session.StateDone
	})

	// Checkpoint bytes read through the gateway, headers intact.
	cr, err := testClient.Get(tc.gw.URL + "/v1/sessions/" + v.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(cr.Body)
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("checkpoint via gateway: status %d (%d bytes)", cr.StatusCode, len(blob))
	}
	if got := cr.Header.Get(service.SessionStepHeader); got != "40" {
		t.Errorf("checkpoint step header %q, want 40", got)
	}

	// The merged list shows all three sessions with node labels.
	lr, err := testClient.Get(tc.gw.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []gwSession `json:"sessions"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(list.Sessions) != 3 {
		t.Fatalf("merged list has %d sessions, want 3", len(list.Sessions))
	}
	for _, s := range list.Sessions {
		if s.Node == "" {
			t.Errorf("session %s missing its node label", s.ID)
		}
	}

	// Pause/resume proxy: conflict on a finished session comes back 409.
	pr, err := testClient.Post(tc.gw.URL+"/v1/sessions/"+v.ID+"/pause", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, pr.Body)
	pr.Body.Close()
	if pr.StatusCode != http.StatusConflict {
		t.Errorf("pause done session via gateway: status %d, want 409", pr.StatusCode)
	}

	// Unknown ids are the gateway's 404, not a proxied one.
	nr, err := testClient.Get(tc.gw.URL + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, nr.Body)
	nr.Body.Close()
	if nr.StatusCode != http.StatusNotFound {
		t.Errorf("unknown session via gateway: status %d, want 404", nr.StatusCode)
	}
}

// TestGatewayBodiesAreBounded: the gateway reads request documents through
// the same limits as the nodes it fronts — 1 MiB for job, fork and member
// documents — while a seeded session create, whose checkpoint is larger
// than that, still passes through to its shard.
func TestGatewayBodiesAreBounded(t *testing.T) {
	tc := startSessionCluster(t, Config{SessionSyncInterval: time.Hour}, "n1")
	status, v := tc.createSession(t, `{"simulate":{"kind":"single","n":48,"steps":1}}`)
	if status != http.StatusAccepted {
		t.Fatalf("create: status %d", status)
	}
	waitFor(t, 60*time.Second, "session done", func() bool {
		return tc.getSession(t, v.ID).State == session.StateDone
	})
	cr, err := testClient.Get(tc.gw.URL + "/v1/sessions/" + v.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := io.ReadAll(cr.Body)
	cr.Body.Close()
	seeded, err := json.Marshal(service.SessionRequest{
		Simulate: &service.SimulateRequest{Kind: "single", N: 48, Steps: 2}, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeded) <= service.MaxDocBytes {
		t.Fatalf("seeded create is %d bytes; the test needs one over the %d-byte document limit", len(seeded), service.MaxDocBytes)
	}
	if status, _ := tc.createSession(t, string(seeded)); status != http.StatusAccepted {
		t.Errorf("seeded create through the gateway (%d bytes): status %d, want 202", len(seeded), status)
	}

	// Leading whitespace keeps each document valid JSON: only its size is
	// wrong.
	pad := strings.Repeat(" ", service.MaxDocBytes)
	for path, body := range map[string]string{
		"/v1/jobs":                       pad + fastBody(0),
		"/v1/nodes":                      pad + `{"id":"n9","url":"http://127.0.0.1:1"}`,
		"/v1/sessions/" + v.ID + "/fork": pad + `{"total_steps":3}`,
	} {
		resp, err := testClient.Post(tc.gw.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(body), resp.StatusCode)
		}
	}
}

// sessionOwner is the ring owner of a session create body's fingerprint
// among nodes n1 and n2, and the other node.
func sessionOwner(t *testing.T, body string) (string, string) {
	t.Helper()
	var sreq service.SessionRequest
	if err := json.Unmarshal([]byte(body), &sreq); err != nil {
		t.Fatal(err)
	}
	fp, err := service.SessionFingerprint(sreq)
	if err != nil {
		t.Fatal(err)
	}
	if NewRing([]string{"n1", "n2"}).Lookup(fp) == "n1" {
		return "n1", "n2"
	}
	return "n2", "n1"
}

// postDrain starts a node's own graceful drain, behind the gateway's back.
func postDrain(t *testing.T, ts *httptest.Server) {
	t.Helper()
	resp, err := testClient.Post(ts.URL+"/v1/drain", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("drain: status %d", resp.StatusCode)
	}
}

const placedSession = `{"simulate":{"kind":"bulk","n":8,"steps":40},"segment":10}`

// TestClusterSessionCreateLearnsDrainingOwner: a session create whose
// owner drained between health sweeps fails over like a job submit, and
// the owner's drain 503 marks it draining on the gateway. No health sweep
// runs, so only the create can have taught the gateway the drain.
func TestClusterSessionCreateLearnsDrainingOwner(t *testing.T) {
	owner, other := sessionOwner(t, placedSession)
	tc := startSessionCluster(t, Config{HealthInterval: time.Hour, SessionSyncInterval: time.Hour}, "n1", "n2")
	postDrain(t, tc.nodes[owner])

	status, v := tc.createSession(t, placedSession)
	if status != http.StatusAccepted || v.Node != other {
		t.Fatalf("create: status %d on %q, want 202 on %s", status, v.Node, other)
	}
	if st := tc.router.Members().State(owner); st != NodeDraining {
		t.Errorf("owner %s is %s after its drain 503, want %s", owner, st, NodeDraining)
	}
	if c := tc.router.Counters(); c.SessionRoutes != 1 || c.Failovers != 1 || c.Submits != 0 {
		t.Errorf("counters = %+v, want 1 session route, 1 failover, 0 submits", c)
	}
}

// TestClusterSessionCreateSkipsShardWithoutSessions: a node without a
// session store answers a create 503 too, but it is not draining: the
// create fails over and the owner stays up. Once the other node drains as
// well, no shard takes the create and the gateway answers 503.
func TestClusterSessionCreateSkipsShardWithoutSessions(t *testing.T) {
	owner, other := sessionOwner(t, placedSession)
	mOwner, tsOwner := startNode(t, owner)
	t.Cleanup(tsOwner.Close) // runs after the cluster's teardown
	tc := startSessionCluster(t, Config{Members: []Member{mOwner},
		HealthInterval: time.Hour, SessionSyncInterval: time.Hour}, other)

	status, v := tc.createSession(t, placedSession)
	if status != http.StatusAccepted || v.Node != other {
		t.Fatalf("create: status %d on %q, want 202 on %s", status, v.Node, other)
	}
	if st := tc.router.Members().State(owner); st != NodeUp {
		t.Errorf("owner %s without sessions is %s, want %s", owner, st, NodeUp)
	}

	postDrain(t, tc.nodes[other])
	if status, _ := tc.createSession(t, placedSession); status != http.StatusServiceUnavailable {
		t.Errorf("create refused by every shard: status %d, want 503", status)
	}
	if st := tc.router.Members().State(owner); st != NodeUp {
		t.Errorf("owner %s without sessions is %s, want %s", owner, st, NodeUp)
	}
}
