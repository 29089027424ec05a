package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/service"
)

// frameNodes walks a stream frame's top-level keys and returns the value
// of every "node" key among them, so a key written twice counts twice.
func frameNodes(t *testing.T, data string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(data))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("frame is not a JSON object: %s", data)
	}
	var nodes []string
	for dec.More() {
		key, err := dec.Token()
		if err != nil {
			t.Fatalf("frame %s: %v", data, err)
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			t.Fatalf("frame %s: %v", data, err)
		}
		if key == "node" {
			var node string
			if err := json.Unmarshal(val, &node); err != nil {
				t.Fatalf("frame %s: node is not a string: %v", data, err)
			}
			nodes = append(nodes, node)
		}
	}
	return nodes
}

// frameSource is the member a node frame came from, read from what the
// frame says besides its node: a stats frame's pool size (each test node
// has its own), a job's or session's id prefix. "" when the frame is of
// another kind.
func frameSource(t *testing.T, event, data string, poolOwner map[int]string) string {
	t.Helper()
	var doc struct {
		ID      string `json:"id"`
		Workers struct {
			Total int `json:"total"`
		} `json:"workers"`
		Session struct {
			ID string `json:"id"`
		} `json:"session"`
	}
	if err := json.Unmarshal([]byte(data), &doc); err != nil {
		t.Fatalf("%s frame %s: %v", event, data, err)
	}
	switch event {
	case "stats":
		return poolOwner[doc.Workers.Total]
	case "job":
		node, _, _ := strings.Cut(doc.ID, "-job-")
		return node
	case "session":
		node, _, _ := strings.Cut(doc.Session.ID, "-sess-")
		return node
	}
	return ""
}

// TestGatewayStreamNamesEachNodeOnce: every node frame on the gateway's
// federated stream — stats, job and session events — carries exactly one
// top-level "node", and it names the member the frame came from. The
// gateway republishes a node's frame as the node wrote it.
func TestGatewayStreamNamesEachNodeOnce(t *testing.T) {
	pools := map[string]int{"n1": 1, "n2": 3}
	poolOwner := map[int]string{1: "n1", 3: "n2"}
	nodes := map[string]*httptest.Server{}
	var cfg Config
	for _, id := range []string{"n1", "n2"} {
		s := service.New(service.Config{NodeID: id, Workers: pools[id],
			DrainTimeout: 2 * time.Minute, SessionDir: t.TempDir()})
		t.Cleanup(func() { _ = s.Shutdown() })
		ts := httptest.NewServer(s.Handler())
		cfg.Members = append(cfg.Members, Member{ID: id, URL: ts.URL})
		nodes[id] = ts
	}
	tc := startGateway(t, cfg, nodes)

	resp, err := http.Get(tc.gw.URL + "/v1/stream?interval=1h") // open for the whole test: no request timeout fits an event stream
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	frames := followFrames(resp)
	// seen counts node frames by "event source"; it is how the test knows
	// both stream readers are attached and every kind has been through.
	seen := func() map[string]int {
		frames.mu.Lock()
		defer frames.mu.Unlock()
		out := map[string]int{}
		for _, fr := range frames.frames {
			if fr[0] != "gateway" {
				out[fr[0]+" "+frameSource(t, fr[0], fr[1], poolOwner)]++
			}
		}
		return out
	}
	waitFor(t, 30*time.Second, "stats frames from both nodes", func() bool {
		s := seen()
		return s["stats n1"] > 0 && s["stats n2"] > 0
	})

	for i := 0; i < 40; i++ {
		s := seen()
		if s["job n1"] > 0 && s["job n2"] > 0 {
			break
		}
		if status, v := tc.submit(t, fastBody(300+i)); status == http.StatusAccepted {
			tc.waitDone(t, v.ID)
		}
	}
	if status, _ := tc.createSession(t, placedSession); status != http.StatusAccepted {
		t.Fatalf("session create: status %d", status)
	}
	waitFor(t, 30*time.Second, "job frames from both nodes and a session frame", func() bool {
		s := seen()
		return s["job n1"] > 0 && s["job n2"] > 0 && (s["session n1"] > 0 || s["session n2"] > 0)
	})

	frames.mu.Lock()
	got := append([][2]string(nil), frames.frames...)
	frames.mu.Unlock()
	for _, fr := range got {
		if fr[0] == "gateway" {
			continue
		}
		nodes := frameNodes(t, fr[1])
		if src := frameSource(t, fr[0], fr[1], poolOwner); len(nodes) != 1 || (src != "" && nodes[0] != src) {
			t.Errorf("%s frame from %q names nodes %q, want exactly [%s]: %s", fr[0], src, nodes, src, fr[1])
		}
	}
}

// sessionStub is a node holding one session whose state and last
// checkpoint step the test sets, counting the gateway's view and
// checkpoint reads. onPull, when set, runs inside each checkpoint read
// before it answers.
type sessionStub struct {
	mu     sync.Mutex
	state  string
	last   int64
	views  int
	pulls  int
	onPull func()
}

func (st *sessionStub) set(state string, last int64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.state, st.last = state, last
}

func (st *sessionStub) reads() (views, pulls int) {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.views, st.pulls
}

// startSyncStub fronts a session stub with a gateway whose loops are not
// started, places the stub's session through it, and returns the
// gateway's entry for it; the test drives syncSessions by hand.
func startSyncStub(t *testing.T) (*Router, *sessionStub, *entry) {
	t.Helper()
	st := &sessionStub{state: "running"}
	const id = "n1-sess-000001"
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = fmt.Fprintf(w, `{"id":%q,"node":"n1","state":"running"}`, id)
	})
	mux.HandleFunc("GET /v1/sessions/{id}", func(w http.ResponseWriter, req *http.Request) {
		st.mu.Lock()
		st.views++
		state, last := st.state, st.last
		st.mu.Unlock()
		_, _ = fmt.Fprintf(w, `{"id":%q,"node":"n1","state":%q,"last_checkpoint":%d}`, id, state, last)
	})
	mux.HandleFunc("GET /v1/sessions/{id}/checkpoint", func(w http.ResponseWriter, req *http.Request) {
		st.mu.Lock()
		st.pulls++
		onPull := st.onPull
		st.mu.Unlock()
		if onPull != nil {
			onPull()
		}
		_, _ = w.Write([]byte("checkpoint@" + req.URL.Query().Get("step")))
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	r := NewRouter(Config{Members: []Member{{ID: "n1", URL: ts.URL}}})
	t.Cleanup(r.Stop)
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions",
		strings.NewReader(placedSession)))
	if rec.Code != http.StatusAccepted {
		t.Fatalf("create: status %d: %s", rec.Code, rec.Body)
	}
	e, _, ok := r.resolve(r.sessions, id)
	if !ok {
		t.Fatal("created session not tabled")
	}
	return r, st, e
}

// replica reads an entry's replicated checkpoint and its step.
func (r *Router) replica(e *entry) ([]byte, int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return e.ckpt, e.ckptStep
}

// TestSessionSyncPullsOnlyANewerCheckpoint: the sweep reads the owner's
// view and pulls the checkpoint the view names only when it is newer than
// the replica; an unchanged step costs no checkpoint read.
func TestSessionSyncPullsOnlyANewerCheckpoint(t *testing.T) {
	r, st, e := startSyncStub(t)
	ctx := context.Background()
	r.syncSessions(ctx)
	if _, pulls := st.reads(); pulls != 0 {
		t.Errorf("a session without a checkpoint was pulled %d times", pulls)
	}
	for _, step := range []int64{10, 10, 10, 30} {
		st.set("running", step)
		r.syncSessions(ctx)
	}
	views, pulls := st.reads()
	if views != 5 || pulls != 2 {
		t.Errorf("5 sweeps over steps 0,10,10,10,30 read %d views and %d checkpoints, want 5 and 2", views, pulls)
	}
	if ckpt, step := r.replica(e); string(ckpt) != "checkpoint@30" || step != 30 {
		t.Errorf("replica %q at step %d, want checkpoint@30 at 30", ckpt, step)
	}
	if c := r.Counters(); c.CheckpointSyncs != 2 {
		t.Errorf("CheckpointSyncs = %d, want 2", c.CheckpointSyncs)
	}
}

// TestSessionSyncReleasesAFinishedSession: a session its owner reports
// done — no client polled it through the gateway — is finished by the
// sweep: its replica is dropped and it is never read again.
func TestSessionSyncReleasesAFinishedSession(t *testing.T) {
	r, st, e := startSyncStub(t)
	ctx := context.Background()
	st.set("running", 10)
	r.syncSessions(ctx)
	if ckpt, _ := r.replica(e); ckpt == nil {
		t.Fatal("running session not replicated")
	}
	st.set("done", 40)
	r.syncSessions(ctx)
	if ckpt, _ := r.replica(e); ckpt != nil || r.live(r.sessions) != 0 {
		t.Fatalf("done session: replica %d bytes, %d live sessions; want none", len(ckpt), r.live(r.sessions))
	}
	views, pulls := st.reads()
	r.syncSessions(ctx)
	r.syncSessions(ctx)
	if v, p := st.reads(); v != views || p != pulls {
		t.Errorf("two sweeps after done read %d views and %d checkpoints, want none", v-views, p-pulls)
	}
}

// TestSessionSyncDropsAFetchThatRacesAFinish: a checkpoint read that is in
// flight when the session is seen finished does not land in the
// now-terminal entry.
func TestSessionSyncDropsAFetchThatRacesAFinish(t *testing.T) {
	r, st, e := startSyncStub(t)
	st.onPull = func() { r.finish(e) }
	st.set("running", 10)
	r.syncSessions(context.Background())
	if ckpt, _ := r.replica(e); ckpt != nil {
		t.Errorf("terminal entry holds a %d-byte replica", len(ckpt))
	}
	if c := r.Counters(); c.CheckpointSyncs != 0 {
		t.Errorf("CheckpointSyncs = %d, want 0", c.CheckpointSyncs)
	}
}

// TestHealthProbeChecksNodeName: a member whose /healthz names another
// node, or none, fails its probes and goes down, and its last error names
// both ids.
func TestHealthProbeChecksNodeName(t *testing.T) {
	for _, answer := range []string{`{"status":"ok","node":"n9"}`, `{"status":"ok"}`} {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
			_, _ = w.Write([]byte(answer))
		}))
		r := NewRouter(Config{Members: []Member{{ID: "n1", URL: ts.URL}}, FailThreshold: 2})
		var named struct {
			Node string `json:"node"`
		}
		_ = json.Unmarshal([]byte(answer), &named)
		for range 2 {
			r.sweepHealth(context.Background())
		}
		m := r.Members().Snapshot()[0]
		want := fmt.Sprintf("healthz names node %q, member is %q", named.Node, "n1")
		if m.State != NodeDown || m.LastErr != want {
			t.Errorf("healthz %s: member %s with last error %q, want down with %q", answer, m.State, m.LastErr, want)
		}
		r.Stop()
		ts.Close()
	}
}
