package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/service"
)

// proxiedRoute is one row of the gateway's forwarded surface: how a client
// reaches it and what the gateway itself answers when the entry is lost
// (its shard died and the re-submit or resume failed).
type proxiedRoute struct {
	name, method, kind, suffix, body string
	// okStatus is what the echo shard answers; joined marks the trace,
	// which the gateway builds from the owner's /spans.
	okStatus int
	joined   bool
	// lostStatus and lostDoc are the gateway's own answer for a lost entry;
	// lostDoc receives the entry id and the recorded loss message.
	lostStatus int
	lostDoc    func(id, lost string) map[string]any
}

func errDoc(prefix string) func(id, lost string) map[string]any {
	return func(_, lost string) map[string]any { return map[string]any{"error": prefix + lost} }
}

func failedView(id, lost string) map[string]any {
	return map[string]any{"id": id, "state": "failed", "error": lost, "node": "n1"}
}

var proxiedRoutes = []proxiedRoute{
	{name: "job status", method: "GET", kind: "jobs", okStatus: 200,
		lostStatus: 200, lostDoc: failedView},
	{name: "job result", method: "GET", kind: "jobs", suffix: "/result", okStatus: 200,
		lostStatus: 500, lostDoc: errDoc("")},
	{name: "job trace", method: "GET", kind: "jobs", suffix: "/trace", okStatus: 200, joined: true,
		lostStatus: 404, lostDoc: errDoc("")},
	{name: "job spans", method: "GET", kind: "jobs", suffix: "/spans", okStatus: 200,
		lostStatus: 404, lostDoc: func(_, lost string) map[string]any {
			return map[string]any{"error": lost, "node": "n1"}
		}},
	{name: "job cancel", method: "DELETE", kind: "jobs", okStatus: 200,
		lostStatus: 409, lostDoc: errDoc("job already failed: ")},
	{name: "session status", method: "GET", kind: "sessions", okStatus: 200,
		lostStatus: 200, lostDoc: failedView},
	{name: "session pause", method: "POST", kind: "sessions", suffix: "/pause", okStatus: 200,
		lostStatus: 409, lostDoc: errDoc("session lost: ")},
	{name: "session resume", method: "POST", kind: "sessions", suffix: "/resume", okStatus: 200,
		lostStatus: 409, lostDoc: errDoc("session lost: ")},
	{name: "session fork", method: "POST", kind: "sessions", suffix: "/fork",
		body: `{"at_step":20,"total_steps":60}`, okStatus: 202,
		lostStatus: 409, lostDoc: errDoc("session lost: ")},
	{name: "session checkpoint", method: "GET", kind: "sessions", suffix: "/checkpoint", okStatus: 200,
		lostStatus: 404, lostDoc: errDoc("session lost: ")},
}

// echoShard is a stub advectd node that accepts one job and one session and
// answers every per-id request with the session checkpoint headers and a
// minimal view document naming its node, as a real node's views do — a
// span log on /spans — recording what the gateway sent it and what it
// answered.
type echoShard struct {
	ts *httptest.Server

	mu   sync.Mutex
	seen map[string]echoed // "METHOD path" -> the last request there
}

type echoed struct{ query, body, answer string }

func startEchoShard(t *testing.T) *echoShard {
	t.Helper()
	sh := &echoShard{seen: map[string]echoed{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, req *http.Request) {
		_, _ = w.Write([]byte(`{"status":"ok","node":"n1"}`))
	})
	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"n1-job-000001","node":"n1","state":"queued"}`))
	})
	mux.HandleFunc("POST /v1/sessions", func(w http.ResponseWriter, req *http.Request) {
		w.WriteHeader(http.StatusAccepted)
		_, _ = w.Write([]byte(`{"id":"n1-sess-000001","node":"n1","state":"running"}`))
	})
	echo := func(w http.ResponseWriter, req *http.Request) {
		body, _ := io.ReadAll(req.Body)
		status, id := http.StatusOK, req.PathValue("id")
		if strings.HasSuffix(req.URL.Path, "/fork") {
			status, id = http.StatusAccepted, "n1-sess-child"
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set(service.SessionStepHeader, "7")
		w.Header().Set(service.SessionFPHeader, "echo-fp")
		answer := fmt.Sprintf(`{"id":%q,"node":"n1","state":"running"}`, id)
		if strings.HasSuffix(req.URL.Path, "/spans") {
			spans, _ := json.Marshal(obs.TraceContext{TraceID: "t", EpochNS: time.Now().UnixNano(), Spans: []obs.Span{
				{Rank: obs.RankService, Step: -1, Phase: obs.PhaseWorkerExec, End: 0.001},
				{Rank: 0, Phase: obs.PhaseInterior, End: 0.001},
			}})
			answer = string(spans)
		}
		sh.mu.Lock()
		sh.seen[req.Method+" "+req.URL.Path] = echoed{query: req.URL.RawQuery, body: string(body), answer: answer}
		sh.mu.Unlock()
		w.WriteHeader(status)
		_, _ = w.Write([]byte(answer))
	}
	for _, pattern := range []string{
		"/v1/jobs/{id}", "/v1/jobs/{id}/{verb}", "/v1/sessions/{id}", "/v1/sessions/{id}/{verb}",
	} {
		mux.HandleFunc(pattern, echo)
	}
	sh.ts = httptest.NewServer(mux)
	t.Cleanup(sh.ts.Close)
	return sh
}

func (sh *echoShard) last(method, path string) (echoed, bool) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.seen[method+" "+path]
	return e, ok
}

// startContractCluster fronts one echo shard and routes a job and a session
// onto it, returning their ids by kind. The session sync sweep is parked so
// only the test's own requests reach the shard's per-id routes.
func startContractCluster(t *testing.T, cfg Config) (*httptest.Server, *echoShard, map[string]string) {
	t.Helper()
	sh := startEchoShard(t)
	cfg.Members = []Member{{ID: "n1", URL: sh.ts.URL}}
	cfg.SessionSyncInterval = time.Hour
	router := NewRouter(cfg)
	ctx, cancel := context.WithCancel(context.Background())
	router.Start(ctx)
	gw := httptest.NewServer(router.Handler())
	t.Cleanup(func() {
		gw.Close()
		cancel()
		router.Stop()
	})
	ids := map[string]string{}
	for kind, body := range map[string]string{
		"jobs":     `{"type":"simulate","simulate":{"kind":"bulk","n":16,"steps":3,"tasks":2,"trace":true}}`,
		"sessions": `{"simulate":{"kind":"bulk","n":8,"steps":40},"segment":10}`,
	} {
		resp, err := testClient.Post(gw.URL+"/v1/"+kind, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var v struct {
			ID   string `json:"id"`
			Node string `json:"node"`
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusAccepted || v.Node != "n1" {
			t.Fatalf("route %s entry: status %d, view %+v, err %v", kind, resp.StatusCode, v, err)
		}
		ids[kind] = v.ID
	}
	return gw, sh, ids
}

// call issues one proxied-route request and decodes the JSON answer,
// handing back its bytes too.
func (pr proxiedRoute) call(t *testing.T, gwURL, id, query string) (*http.Response, map[string]any, []byte) {
	t.Helper()
	url := gwURL + "/v1/" + pr.kind + "/" + id + pr.suffix + query
	req, err := http.NewRequest(pr.method, url, strings.NewReader(pr.body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := testClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("%s %s: answer is not a JSON document: %v", pr.method, url, err)
	}
	return resp, doc, raw
}

// TestGatewayProxyContract pins what the gateway's single forwarding path
// answers on every proxied route: the gateway's own 404 for an id it never
// routed, the per-route answer for a lost entry, a shard-attributed 502 when
// the owner does not answer, and on the happy path the client's method,
// query string and body relayed to the owner under the owner's id, with the
// shard's status, bytes and checkpoint headers relayed back — on every
// route but the trace, which joins the owner's span log to the gateway's
// own.
func TestGatewayProxyContract(t *testing.T) {
	t.Run("relayed", func(t *testing.T) {
		gw, sh, ids := startContractCluster(t, Config{HealthInterval: time.Hour})
		for _, pr := range proxiedRoutes {
			t.Run(pr.name, func(t *testing.T) {
				resp, _, raw := pr.call(t, gw.URL, ids[pr.kind], "?probe=1&step=7")
				if resp.StatusCode != pr.okStatus {
					t.Errorf("status %d, want the shard's %d", resp.StatusCode, pr.okStatus)
				}
				suffix := pr.suffix
				if pr.joined {
					suffix = "/spans"
				}
				got, ok := sh.last(pr.method, "/v1/"+pr.kind+"/"+ids[pr.kind]+suffix)
				if !ok {
					t.Fatalf("shard never saw %s %s%s", pr.method, ids[pr.kind], suffix)
				}
				if got.query != "probe=1&step=7" {
					t.Errorf("query relayed as %q, want %q", got.query, "probe=1&step=7")
				}
				if got.body != pr.body {
					t.Errorf("body relayed as %q, want %q", got.body, pr.body)
				}
				// Every answer but the joined trace is the owner's, byte for
				// byte, checkpoint headers included.
				step, fp := resp.Header.Get(service.SessionStepHeader), resp.Header.Get(service.SessionFPHeader)
				switch {
				case pr.joined:
					got, _ := traceProcesses(t, gw.URL+"/v1/jobs/"+ids["jobs"]+"/trace")
					if want := []string{"gateway", "n1 rank 0", "n1 service"}; !reflect.DeepEqual(got, want) {
						t.Errorf("joined trace processes %v, want %v", got, want)
					}
				case string(raw) != got.answer:
					t.Errorf("answer relayed as %s, want the shard's %s", raw, got.answer)
				case step != "7" || fp != "echo-fp":
					t.Errorf("checkpoint headers relayed as step %q fp %q, want 7 and echo-fp", step, fp)
				}
			})
		}
	})

	t.Run("unknown", func(t *testing.T) {
		gw, _, _ := startContractCluster(t, Config{HealthInterval: time.Hour})
		for _, pr := range proxiedRoutes {
			t.Run(pr.name, func(t *testing.T) {
				resp, doc, _ := pr.call(t, gw.URL, "nope", "")
				want := map[string]any{"error": "unknown " + strings.TrimSuffix(pr.kind, "s")}
				if resp.StatusCode != http.StatusNotFound || !reflect.DeepEqual(doc, want) {
					t.Errorf("status %d doc %v, want 404 %v", resp.StatusCode, doc, want)
				}
			})
		}
	})

	t.Run("unreachable", func(t *testing.T) {
		// The health sweep never runs, so the dead shard stays the owner.
		gw, sh, ids := startContractCluster(t, Config{HealthInterval: time.Hour})
		sh.ts.CloseClientConnections()
		sh.ts.Close()
		for _, pr := range proxiedRoutes {
			t.Run(pr.name, func(t *testing.T) {
				resp, doc, _ := pr.call(t, gw.URL, ids[pr.kind], "")
				msg, _ := doc["error"].(string)
				if resp.StatusCode != http.StatusBadGateway || !strings.HasPrefix(msg, "shard unreachable: ") ||
					doc["node"] != "n1" || len(doc) != 2 {
					t.Errorf("status %d doc %v, want 502 {error: shard unreachable: ..., node: n1}", resp.StatusCode, doc)
				}
			})
		}
	})

	t.Run("lost", func(t *testing.T) {
		// One shard and a fast sweep: when it dies nothing is left to take
		// its work, so the reroute and the resume both fail.
		gw, sh, ids := startContractCluster(t, Config{HealthInterval: 20 * time.Millisecond, FailThreshold: 1})
		sh.ts.CloseClientConnections()
		sh.ts.Close()
		lost := map[string]string{
			"jobs":     "node n1 died and re-submit failed: cluster: no routable nodes",
			"sessions": "node n1 died and the session resume failed: cluster: no routable nodes",
		}
		for kind, id := range ids {
			waitFor(t, 10*time.Second, kind+" entry lost", func() bool {
				resp, err := testClient.Get(gw.URL + "/v1/" + kind + "/" + id)
				if err != nil {
					t.Fatal(err)
				}
				defer resp.Body.Close()
				var v struct{ State string }
				return json.NewDecoder(resp.Body).Decode(&v) == nil && v.State == "failed"
			})
		}
		for _, pr := range proxiedRoutes {
			t.Run(pr.name, func(t *testing.T) {
				resp, doc, _ := pr.call(t, gw.URL, ids[pr.kind], "")
				want := pr.lostDoc(ids[pr.kind], lost[pr.kind])
				if resp.StatusCode != pr.lostStatus || !reflect.DeepEqual(doc, want) {
					t.Errorf("status %d doc %v, want %d %v", resp.StatusCode, doc, pr.lostStatus, want)
				}
			})
		}
	})
}
