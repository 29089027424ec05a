package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/service"
)

// testClient is what every test request goes through, instead of
// http.DefaultClient, which has no timeout: a request a gateway or node never
// answers (seen with TestClusterBundlePartialOnNodeDown on a loaded host)
// then fails at its own line in seconds instead of hanging the package to
// the test timeout.
var testClient = &http.Client{Timeout: 30 * time.Second}

// startNode boots one in-process advectd node with a cluster identity.
// The caller owns shutdown — register the server with a testCluster (or
// close it explicitly) so teardown happens after the gateway stops; the
// gateway holds a long-lived SSE connection to every node, so closing a
// node server before the router stops blocks forever.
func startNode(t *testing.T, id string) (Member, *httptest.Server) {
	t.Helper()
	// DrainTimeout is generous because -race inflates job runtimes; a test
	// drain must never hit the cancellation cliff.
	s := service.New(service.Config{
		NodeID:       id,
		DrainTimeout: 2 * time.Minute,
	})
	ts := httptest.NewServer(s.Handler())
	return Member{ID: id, URL: ts.URL}, ts
}

type testCluster struct {
	router *Router
	gw     *httptest.Server
	nodes  map[string]*httptest.Server
}

// startCluster boots n real advectd nodes and a gateway over them.
func startCluster(t *testing.T, cfg Config, ids ...string) *testCluster {
	t.Helper()
	nodes := map[string]*httptest.Server{}
	for _, id := range ids {
		m, ts := startNode(t, id)
		cfg.Members = append(cfg.Members, m)
		nodes[id] = ts
	}
	return startGateway(t, cfg, nodes)
}

// startGateway fronts node servers, which cfg.Members lists, with a
// gateway and starts its background loops. Teardown runs in dependency
// order: gateway first, then the router's loops (releasing the SSE
// connections), then the node servers.
func startGateway(t *testing.T, cfg Config, nodes map[string]*httptest.Server) *testCluster {
	t.Helper()
	tc := &testCluster{nodes: nodes}
	tc.router = NewRouter(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	tc.router.Start(ctx)
	tc.gw = httptest.NewServer(tc.router.Handler())
	t.Cleanup(func() {
		tc.gw.Close()
		cancel()
		tc.router.Stop()
		for _, ts := range tc.nodes {
			ts.Close()
		}
	})
	return tc
}

// killNode severs a node mid-run the way a crash would: the listener closes
// and client connections (including the gateway's open SSE stream) drop. A
// plain Close would wait on the SSE connection forever, and so would one
// CloseClientConnections before it: a health check or SSE redial accepted in
// between turns active and is never closed. So connections are dropped
// until Close returns.
func (tc *testCluster) killNode(id string) {
	ts := tc.nodes[id]
	closed := make(chan struct{})
	go func() {
		ts.Close()
		close(closed)
	}()
	for {
		ts.CloseClientConnections()
		select {
		case <-closed:
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// gwView is the gateway's labelled job view as a client decodes it.
type gwView struct {
	ID       string        `json:"id"`
	State    service.State `json:"state"`
	CacheKey string        `json:"cache_key"`
	CacheHit bool          `json:"cache_hit"`
	Error    string        `json:"error"`
	Node     string        `json:"node"`
	TraceID  string        `json:"trace_id"`
}

func (tc *testCluster) submit(t *testing.T, body string) (int, gwView) {
	t.Helper()
	resp, err := testClient.Post(tc.gw.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v gwView
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	} else {
		_, _ = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, v
}

func (tc *testCluster) waitDone(t *testing.T, id string) gwView {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for {
		resp, err := testClient.Get(tc.gw.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v gwView
		decodeErr := json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK && decodeErr == nil {
			if v.State == service.StateDone {
				return v
			}
			if v.State.Terminal() {
				t.Fatalf("job %s landed in %s (error %q), want done", id, v.State, v.Error)
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s not done before deadline (last status %d, state %s)", id, resp.StatusCode, v.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// federated GETs one of the gateway's federated documents (path is
// /v1/stats or /v1/debug/bundle), which always answer 200.
func (tc *testCluster) federated(t *testing.T, path string) FederatedDoc {
	t.Helper()
	resp, err := testClient.Get(tc.gw.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: want 200, got %v", path, resp.Status)
	}
	var d FederatedDoc
	if err := json.NewDecoder(resp.Body).Decode(&d); err != nil {
		t.Fatalf("decode %s: %v", path, err)
	}
	return d
}

func (d FederatedDoc) node(t *testing.T, id string) NodeDoc {
	t.Helper()
	for _, nd := range d.Nodes {
		if nd.ID == id {
			return nd
		}
	}
	t.Fatalf("no entry for node %s", id)
	return NodeDoc{}
}

// nodeStats decodes each member's relayed stats document, by id; a member
// whose entry carries an error instead has none.
func (d FederatedDoc) nodeStats(t *testing.T) map[string]*service.TelemetryStats {
	t.Helper()
	out := map[string]*service.TelemetryStats{}
	for _, nd := range d.Nodes {
		if nd.Doc == nil {
			continue
		}
		var st service.TelemetryStats
		if err := json.Unmarshal(nd.Doc, &st); err != nil {
			t.Fatalf("node %s stats: %v", nd.ID, err)
		}
		out[nd.ID] = &st
	}
	return out
}

func nodeJobCount(t *testing.T, ts *httptest.Server) int {
	t.Helper()
	resp, err := testClient.Get(ts.URL + "/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc struct {
		Jobs []service.View `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode node job list: %v", err)
	}
	return len(doc.Jobs)
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// fastBody is a distinct cheap problem per index (milliseconds).
func fastBody(i int) string {
	return fmt.Sprintf(`{"type":"simulate","simulate":{"kind":"bulk","n":16,"steps":%d,"tasks":2}}`, 2+i)
}

// slowBody is a distinct problem per index that runs long enough (a couple
// hundred milliseconds, several seconds under -race) to be in flight when
// a test kills or drains its node, without making the batch take minutes
// under the race detector. The failover assertions stay valid even if a
// victim-side job finishes just before the kill: the gateway observed no
// terminal poll, so the fingerprint is rerouted and re-executed on a
// survivor either way.
func slowBody(i int) string {
	return fmt.Sprintf(`{"type":"simulate","simulate":{"kind":"bulk","n":48,"steps":%d,"tasks":2}}`, 100+i)
}

// TestClusterRoutesToOwner: the gateway forwards each submission to the
// shard the hash ring names for its fingerprint, job ids carry the node
// prefix, and status/result stay reachable through the gateway.
func TestClusterRoutesToOwner(t *testing.T) {
	tc := startCluster(t, Config{}, "n1", "n2", "n3")
	for i := 0; i < 5; i++ {
		status, v := tc.submit(t, fastBody(i))
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, status)
		}
		if owner := tc.router.Members().Ring().Lookup(v.CacheKey); v.Node != owner {
			t.Errorf("submit %d landed on %s, ring owner is %s", i, v.Node, owner)
		}
		if !strings.HasPrefix(v.ID, v.Node+"-job-") {
			t.Errorf("submit %d: id %q lacks the %q node prefix", i, v.ID, v.Node)
		}
		done := tc.waitDone(t, v.ID)
		if done.Node != v.Node {
			t.Errorf("job %s moved from %s to %s without a failure", v.ID, v.Node, done.Node)
		}
		resp, err := testClient.Get(tc.gw.URL + "/v1/jobs/" + v.ID + "/result")
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("result for %s: status %d", v.ID, resp.StatusCode)
		}
	}
}

// TestClusterCacheAffinityAcrossJoin: a node joining moves only the keys the
// ring re-homes to it. Results for every other key stay cache hits on their
// owners; a moved key is recomputed once on the newcomer — never answered by
// its old owner — and is a cache hit there from then on.
func TestClusterCacheAffinityAcrossJoin(t *testing.T) {
	tc := startCluster(t, Config{}, "n1", "n2")
	const keys = 12
	bodies := make([]string, keys)
	fps := make([]string, keys)
	for i := range bodies {
		bodies[i] = fastBody(i)
		status, v := tc.submit(t, bodies[i])
		if status != http.StatusAccepted && status != http.StatusOK {
			t.Fatalf("submit %d: status %d", i, status)
		}
		fps[i] = v.CacheKey
		tc.waitDone(t, v.ID)
	}
	for i := range bodies {
		status, v := tc.submit(t, bodies[i])
		if status != http.StatusOK || !v.CacheHit {
			t.Fatalf("warm resubmit %d: status %d, cache_hit %v (want 200, true)", i, status, v.CacheHit)
		}
	}

	before := tc.router.Members().Ring()
	m3, ts3 := startNode(t, "n3")
	tc.nodes["n3"] = ts3 // owned by the cluster teardown from here on
	memberDoc, err := json.Marshal(m3)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(tc.gw.URL+"/v1/nodes", "application/json", strings.NewReader(string(memberDoc)))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("join: status %d", resp.StatusCode)
	}
	after := tc.router.Members().Ring()
	if len(after.Nodes()) != 3 {
		t.Fatalf("ring after join has nodes %v, want 3", after.Nodes())
	}

	moved := 0
	for i, fp := range fps {
		owner := after.Lookup(fp)
		if before.Lookup(fp) == owner {
			status, v := tc.submit(t, bodies[i])
			if status != http.StatusOK || !v.CacheHit || v.Node != owner {
				t.Errorf("unmoved key %d: status %d, cache_hit %v on %s (want 200, true on %s)",
					i, status, v.CacheHit, v.Node, owner)
			}
			continue
		}
		if owner != "n3" {
			t.Errorf("key %d moved to %s, minimal remap says only the newcomer gains keys", i, owner)
		}
		moved++
		status, v := tc.submit(t, bodies[i])
		if status != http.StatusAccepted || v.CacheHit || v.Node != "n3" {
			t.Errorf("re-homed key %d: status %d, cache_hit %v on %s (want one recomputation: 202 on n3)",
				i, status, v.CacheHit, v.Node)
		}
		tc.waitDone(t, v.ID)
		status, v = tc.submit(t, bodies[i])
		if status != http.StatusOK || !v.CacheHit || v.Node != "n3" {
			t.Errorf("re-homed key %d resubmitted: status %d, cache_hit %v on %s (want 200, true on n3)",
				i, status, v.CacheHit, v.Node)
		}
	}
	// The ring is deterministic, so this is a constant of the test, not a
	// flake: with 12 keys and a third node joining, ≈4 keys must move.
	if moved == 0 {
		t.Fatalf("no key moved to the joining node; enlarge the key set")
	}
	// One execution per moved key on the newcomer, and none anywhere else
	// after the join: n1 and n2 still count only the original batch.
	var execs int64
	for id, ts := range tc.nodes {
		n := nodeExecCount(t, ts)
		if id == "n3" && n != int64(moved) {
			t.Errorf("n3 executed %d jobs, want %d (one per re-homed key)", n, moved)
		}
		execs += n
	}
	if execs != keys+int64(moved) {
		t.Errorf("cluster executed %d jobs, want %d (the batch plus one per re-homed key)", execs, keys+moved)
	}
}

// nodeExecCount reads how many simulate jobs a node has executed.
func nodeExecCount(t *testing.T, ts *httptest.Server) int64 {
	t.Helper()
	resp, err := testClient.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st service.TelemetryStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatalf("decode node stats: %v", err)
	}
	return int64(st.Exec["simulate"].Count)
}

// TestGatewayForwardsOnce: an uncached submission costs exactly one request,
// the POST to its ring owner; no sibling hears of it.
func TestGatewayForwardsOnce(t *testing.T) {
	req := stubRequest()
	ownerID, otherID := stubOwner(req.CacheKey())
	var mu sync.Mutex
	seen := map[string][]string{}
	record := func(id string) Member {
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			mu.Lock()
			seen[id] = append(seen[id], r.Method+" "+r.URL.Path)
			mu.Unlock()
			if r.Method != http.MethodPost || r.URL.Path != "/v1/jobs" {
				w.WriteHeader(http.StatusNotFound) // anything else misses
				return
			}
			acceptQueued(id)(1, w)
		}))
		t.Cleanup(ts.Close)
		return Member{ID: id, URL: ts.URL}
	}
	r := NewRouter(Config{Members: []Member{record(ownerID), record(otherID)}})
	gw := httptest.NewServer(r.Handler())
	t.Cleanup(gw.Close)

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(gw.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", resp.StatusCode)
	}
	mu.Lock()
	defer mu.Unlock()
	if got := seen[ownerID]; len(got) != 1 || got[0] != "POST /v1/jobs" {
		t.Errorf("owner %s received %v, want exactly [POST /v1/jobs]", ownerID, got)
	}
	if got := seen[otherID]; len(got) != 0 {
		t.Errorf("sibling %s received %v, want nothing", otherID, got)
	}
}

// TestGatewayAcceptedStaysAccepted: a node admits a job with 202 and may
// finish it before it writes the answer, so the view it sends can read
// done. The gateway answers what the node did — 202, a job admitted — and
// keeps 200 for an answer from the owner's cache.
func TestGatewayAcceptedStaysAccepted(t *testing.T) {
	req := stubRequest()
	ownerID, otherID := stubOwner(req.CacheKey())
	for _, c := range []struct {
		node, want int    // the owner's status and the gateway's
		view       string // the owner's view, a format of id and sequence number
	}{
		{http.StatusAccepted, http.StatusAccepted, `{"id":"%s-job-%06d","state":"done"}`},
		{http.StatusOK, http.StatusOK, `{"id":"%s-job-%06d","state":"done","cache_hit":true}`},
	} {
		owner, _ := startStub(t, ownerID, func(n int64, w http.ResponseWriter) {
			w.WriteHeader(c.node)
			_, _ = fmt.Fprintf(w, c.view, ownerID, n)
		})
		other, _ := startStub(t, otherID, acceptQueued(otherID))
		gw := httptest.NewServer(NewRouter(Config{Members: []Member{owner, other}}).Handler())
		t.Cleanup(gw.Close)
		body, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := testClient.Post(gw.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("owner answered %d with %s: gateway status %d, want %d", c.node, c.view, resp.StatusCode, c.want)
		}
	}
}

// startStub boots a fake shard whose submit behavior the test scripts;
// health answers up.
func startStub(t *testing.T, id string, onSubmit func(n int64, w http.ResponseWriter)) (Member, *atomic.Int64) {
	t.Helper()
	submits := &atomic.Int64{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok","node":"` + id + `"}`))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		onSubmit(submits.Add(1), w)
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return Member{ID: id, URL: ts.URL}, submits
}

// submitVia posts req to the gateway's handler and decodes the view it
// relays.
func submitVia(t *testing.T, r *Router, req service.Request) (int, gwView) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
	var v gwView
	if rec.Code == http.StatusOK || rec.Code == http.StatusAccepted {
		if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return rec.Code, v
}

func acceptQueued(id string) func(n int64, w http.ResponseWriter) {
	return func(n int64, w http.ResponseWriter) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = fmt.Fprintf(w, `{"id":"%s-job-%06d","state":"queued"}`, id, n)
	}
}

func shed(retryAfter string) func(n int64, w http.ResponseWriter) {
	return func(n int64, w http.ResponseWriter) {
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = w.Write([]byte(`{"error":"queue full"}`))
	}
}

func stubRequest() service.Request {
	return service.Request{
		Type:     service.TypeSimulate,
		Simulate: &service.SimulateRequest{Kind: "bulk", N: 16, Steps: 3, Tasks: 2},
	}
}

// stubOwner orders the two stub ids so the first is the ring owner of the
// stub request's fingerprint.
func stubOwner(fp string) (string, string) {
	ring := NewRing([]string{"s1", "s2"})
	if ring.Lookup(fp) == "s1" {
		return "s1", "s2"
	}
	return "s2", "s1"
}

// TestClusterHonorsBriefRetryAfter: a 429 whose Retry-After fits inside
// RetryWait is absorbed by retrying the owner in place — the job stays on
// the shard with cache affinity instead of failing over.
func TestClusterHonorsBriefRetryAfter(t *testing.T) {
	req := stubRequest()
	ownerID, otherID := stubOwner(req.CacheKey())
	mOwner, ownerSubmits := startStub(t, ownerID, func(n int64, w http.ResponseWriter) {
		if n == 1 {
			shed("1")(n, w)
			return
		}
		acceptQueued(ownerID)(n, w)
	})
	mOther, otherSubmits := startStub(t, otherID, acceptQueued(otherID))
	r := NewRouter(Config{Members: []Member{mOwner, mOther}, RetryWait: 2 * time.Second})

	status, view := submitVia(t, r, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", status)
	}
	if !strings.HasPrefix(view.ID, ownerID+"-job-") {
		t.Errorf("job id %q not from the owner %s (brief retry, not failover)", view.ID, ownerID)
	}
	if got := ownerSubmits.Load(); got != 2 {
		t.Errorf("owner saw %d submits, want 2 (shed then retry)", got)
	}
	if got := otherSubmits.Load(); got != 0 {
		t.Errorf("other shard saw %d submits, want 0", got)
	}
	c := r.Counters()
	if c.BriefRetries != 1 || c.Failovers != 0 || c.Submits != 1 {
		t.Errorf("counters = %+v, want 1 brief retry, 0 failovers, 1 submit", c)
	}
}

// TestClusterFailsOverOnLongRetryAfter: a 429 advertising a wait longer
// than RetryWait means the shard is genuinely backed up — the gateway moves
// to the next ring node immediately instead of stalling the client.
func TestClusterFailsOverOnLongRetryAfter(t *testing.T) {
	req := stubRequest()
	ownerID, otherID := stubOwner(req.CacheKey())
	mOwner, ownerSubmits := startStub(t, ownerID, shed("30"))
	mOther, otherSubmits := startStub(t, otherID, acceptQueued(otherID))
	r := NewRouter(Config{Members: []Member{mOwner, mOther}, RetryWait: time.Second})

	start := time.Now()
	status, view := submitVia(t, r, req)
	if status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", status)
	}
	if !strings.HasPrefix(view.ID, otherID+"-job-") {
		t.Errorf("job id %q not from %s, want failover there", view.ID, otherID)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("failover took %v; a 30s Retry-After must not be slept on", elapsed)
	}
	if got := ownerSubmits.Load(); got != 1 {
		t.Errorf("owner saw %d submits, want exactly 1 (no in-place retry)", got)
	}
	if got := otherSubmits.Load(); got != 1 {
		t.Errorf("other shard saw %d submits, want 1", got)
	}
	c := r.Counters()
	if c.Failovers != 1 || c.BriefRetries != 0 {
		t.Errorf("counters = %+v, want 1 failover, 0 brief retries", c)
	}
}

// TestClusterShedsWhenAllReject: when every shard sheds, the gateway's own
// 429 carries the longest Retry-After any shard advertised.
func TestClusterShedsWhenAllReject(t *testing.T) {
	req := stubRequest()
	ownerID, otherID := stubOwner(req.CacheKey())
	mOwner, ownerSubmits := startStub(t, ownerID, shed("30"))
	mOther, otherSubmits := startStub(t, otherID, shed("7"))
	r := NewRouter(Config{Members: []Member{mOwner, mOther}, RetryWait: time.Second})
	gw := httptest.NewServer(r.Handler())
	t.Cleanup(gw.Close)

	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Post(gw.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "30" {
		t.Errorf("Retry-After = %q, want the longest shard estimate \"30\"", got)
	}
	if ownerSubmits.Load() != 1 || otherSubmits.Load() != 1 {
		t.Errorf("submits = %d/%d, want exactly one per shard", ownerSubmits.Load(), otherSubmits.Load())
	}
	if c := r.Counters(); c.Shed != 1 {
		t.Errorf("Shed = %d, want 1", c.Shed)
	}
}

// TestRouterStopClosesNodeConnections: Stop closes the connections the
// gateway left open to a node, so the node's graceful shutdown does not
// wait them out.
func TestRouterStopClosesNodeConnections(t *testing.T) {
	ts := httptest.NewUnstartedServer(service.New(service.Config{NodeID: "n1"}).Handler())
	var open atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		switch st {
		case http.StateNew:
			open.Add(1)
		case http.StateClosed, http.StateHijacked:
			open.Add(-1)
		}
	}
	ts.Start()
	defer ts.Close()
	router := NewRouter(Config{Members: []Member{{ID: "n1", URL: ts.URL}}, HealthInterval: time.Hour})
	router.Start(context.Background())
	if status, _ := submitVia(t, router, service.Request{Type: service.TypePredict,
		Predict: &service.PredictRequest{Machine: "Yona", Kind: "bulk", Cores: 12}}); status != http.StatusAccepted {
		t.Fatalf("submit: status %d, want 202", status)
	}
	router.Stop()
	waitFor(t, 2*time.Second, "the gateway's node connections to close", func() bool { return open.Load() == 0 })
}

// TestConfigFields is the settable-values ratchet of a gateway: a new
// Config field is a visible edit to this list.
func TestConfigFields(t *testing.T) {
	want := []string{"Members", "HealthInterval", "FailThreshold", "RetryWait",
		"SessionSyncInterval", "EnablePprof", "Logger"}
	var got []string
	typ := reflect.TypeOf(Config{})
	for i := range typ.NumField() {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cluster.Config fields %v, want %v", got, want)
	}
}
