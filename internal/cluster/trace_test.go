package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// startZombieNode is startNode with a kill switch: flipping the returned
// flag makes the node fail its health probes and stop answering client
// job reads, while diagnostic reads (the /spans harvest) and cancels
// keep working — a zombie, sick enough to be declared dead but alive
// enough to give up its span log. That window is exactly what the
// gateway's dead-node harvest exists for, so the trace tests fail nodes
// this way instead of severing connections.
func startZombieNode(t *testing.T, id string) (Member, *httptest.Server, *atomic.Bool) {
	t.Helper()
	s := service.New(service.Config{
		NodeID:       id,
		DrainTimeout: 2 * time.Minute,
	})
	var zombie atomic.Bool
	inner := s.Handler()
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if zombie.Load() {
			p := r.URL.Path
			clientRead := r.Method == http.MethodGet &&
				strings.HasPrefix(p, "/v1/jobs") && !strings.HasSuffix(p, "/spans")
			if p == "/healthz" || clientRead {
				http.Error(w, "unresponsive", http.StatusInternalServerError)
				return
			}
		}
		inner.ServeHTTP(w, r)
	})
	ts := httptest.NewServer(h)
	return Member{ID: id, URL: ts.URL}, ts, &zombie
}

// startZombieCluster is startCluster over zombie-capable nodes; the
// returned switches zombify a node by id.
func startZombieCluster(t *testing.T, cfg Config, ids ...string) (*testCluster, map[string]*atomic.Bool) {
	t.Helper()
	nodes := map[string]*httptest.Server{}
	switches := map[string]*atomic.Bool{}
	for _, id := range ids {
		m, ts, z := startZombieNode(t, id)
		cfg.Members = append(cfg.Members, m)
		nodes[id] = ts
		switches[id] = z
	}
	return startGateway(t, cfg, nodes), switches
}

// heldRunner is a registered runner whose every Run, once its steps are
// computed, calls hold before it returns.
type heldRunner struct {
	core.Runner
	hold func(o core.Options)
}

func (h heldRunner) Run(p core.Problem, o core.Options) (*core.Result, error) {
	res, err := h.Runner.Run(p, o)
	h.hold(o)
	return res, err
}

// holdFirstBulkRun makes the first bulk Run of the test compute every step
// and then stay inside Run until release is called or its context ends.
// Its node therefore never finishes that job — never records svc.exec or
// svc.encode — while the test retires the node. computed is closed once
// the held run's steps are done. Call it after the cluster has started, so
// its cleanup releases the run before the nodes shut down.
func holdFirstBulkRun(t *testing.T) (computed <-chan struct{}, release func()) {
	t.Helper()
	real, err := core.New(core.BulkSync)
	if err != nil {
		t.Fatal(err)
	}
	done, gate := make(chan struct{}), make(chan struct{})
	var first atomic.Bool
	core.Register(core.BulkSync, func() core.Runner {
		return heldRunner{real, func(o core.Options) {
			if first.Swap(true) {
				return
			}
			close(done)
			select {
			case <-gate:
			case <-o.Context().Done():
			}
		}}
	})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		core.Register(core.BulkSync, func() core.Runner { return real })
	})
	return done, release
}

// tracedBody is one fixed traced bulk problem: the failover test holds the
// owner's run inside Run once its steps are done (holdFirstBulkRun), so the
// dead-node process in the golden is always a full rank span set with no
// svc.exec / svc.encode.
const tracedBody = `{"type":"simulate","simulate":{"kind":"bulk","n":128,"steps":40,"tasks":2,"trace":true}}`

// chromeDoc is the decoded shape of a /trace export the tests care about.
type chromeDoc struct {
	TraceEvents []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	} `json:"traceEvents"`
}

// TestClusterTraceFailoverGolden runs one traced job through a 2-node
// cluster, zombifies the owner mid-run, and asserts the single Chrome
// trace served for the original job id afterwards: gateway routing spans,
// the dead node's partial run, the resubmission, and the survivor's full
// run, all on one monotonic timeline. The phase vocabulary per trace
// process is pinned by a golden skeleton (timestamps stripped — they
// vary run to run); regenerate with UPDATE_GOLDEN=1 after intentional
// changes to the span set.
func TestClusterTraceFailoverGolden(t *testing.T) {
	tc, switches := startZombieCluster(t, Config{
		HealthInterval: 50 * time.Millisecond,
		FailThreshold:  2,
	}, "n1", "n2")
	computed, release := holdFirstBulkRun(t)

	status, v := tc.submit(t, tracedBody)
	if status != http.StatusAccepted {
		t.Fatalf("submit status %d, want 202", status)
	}
	if v.TraceID == "" {
		t.Fatal("traced submission returned no trace_id")
	}
	owner := v.Node
	survivor := "n1"
	if owner == "n1" {
		survivor = "n2"
	}

	spansOf := func() *obs.TraceContext {
		resp, err := testClient.Get(tc.gw.URL + "/v1/jobs/" + v.ID + "/spans")
		if err != nil {
			return nil
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return nil
		}
		var c obs.TraceContext
		if err := json.NewDecoder(resp.Body).Decode(&c); err != nil {
			return nil
		}
		return &c
	}

	// Let the owner record every step before it goes dark, so the
	// harvested run and the survivor's expose identical rank phase sets;
	// its run stays inside Run, unfinished, until released below.
	select {
	case <-computed:
	case <-time.After(60 * time.Second):
		t.Fatal("timed out waiting for the owner's run to compute its steps")
	}

	switches[owner].Store(true)
	waitFor(t, 30*time.Second, "owner declared down", func() bool {
		return tc.router.members.State(owner) == NodeDown
	})

	// The zombie no longer answers client reads, so the gateway can only
	// ever report this job done from the survivor — once the reroute has
	// re-homed the fingerprint, after the harvest of the dead node's span
	// log. Wait for that, then let the zombie's abandoned run return: what
	// it records from then on is not in the harvest.
	waitFor(t, 60*time.Second, "fingerprint re-homed", func() bool {
		resp, err := testClient.Get(tc.gw.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			_, _ = io.Copy(io.Discard, resp.Body)
			return false
		}
		var cur gwView
		if err := json.NewDecoder(resp.Body).Decode(&cur); err != nil {
			return false
		}
		return cur.Node == survivor
	})
	release()

	done := tc.waitDone(t, v.ID)
	if done.Node != survivor {
		t.Fatalf("job finished on %s, want survivor %s", done.Node, survivor)
	}

	// The spans doc reachable under the original id must continue the
	// trace the submit response announced, across the resubmission.
	if c := spansOf(); c == nil {
		t.Fatal("no spans doc after failover")
	} else if c.TraceID != v.TraceID {
		t.Fatalf("trace id changed across failover: %s -> %s", v.TraceID, c.TraceID)
	}

	resp, err := testClient.Get(tc.gw.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("trace fetch status %d", resp.StatusCode)
	}
	var doc chromeDoc
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode chrome trace: %v", err)
	}

	procName := map[int]string{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			if n, ok := ev.Args["name"].(string); ok {
				procName[ev.PID] = n
			}
		}
	}
	phasesByProc := map[string]map[string]bool{}
	handoffs := 0
	deadEnd := math.Inf(-1)
	survivorRankStart := math.Inf(1)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Dur < 0 {
			t.Errorf("negative duration %f on event %q", ev.Dur, ev.Name)
		}
		name := procName[ev.PID]
		if name == "" {
			t.Fatalf("span event on pid %d with no process_name", ev.PID)
		}
		if phasesByProc[name] == nil {
			phasesByProc[name] = map[string]bool{}
		}
		ph := obs.Phase(ev.TID)
		phasesByProc[name][ph.String()] = true
		if ph == obs.PhaseGWHandoff {
			handoffs++
		}
		if strings.HasPrefix(name, owner+" ") {
			deadEnd = math.Max(deadEnd, ev.TS+ev.Dur)
		}
		if strings.HasPrefix(name, survivor+" rank") {
			survivorRankStart = math.Min(survivorRankStart, ev.TS)
		}
	}
	gw := phasesByProc["gateway"]
	if gw == nil || !gw["gw.route"] || !gw["gw.submit"] || !gw["gw.resubmit"] {
		t.Fatalf("gateway span set incomplete: %v", gw)
	}
	// Exactly one handoff survives the merge: the zombie's own copy is
	// gateway-rank and skipped at harvest, the survivor's import adds one.
	if handoffs != 1 {
		t.Errorf("want exactly 1 gw.handoff span, got %d", handoffs)
	}
	// Everything the dead node did happened strictly before the survivor
	// started computing — one monotonic timeline, no interleaving.
	if deadEnd > survivorRankStart {
		t.Errorf("timeline not monotonic across failover: dead-node spans end at %.1fus, survivor ranks start at %.1fus",
			deadEnd, survivorRankStart)
	}

	type procSkeleton struct {
		Process string   `json:"process"`
		Phases  []string `json:"phases"`
	}
	skel := make([]procSkeleton, 0, len(phasesByProc))
	for name, set := range phasesByProc {
		ps := procSkeleton{Process: name}
		for ph := range set {
			ps.Phases = append(ps.Phases, ph)
		}
		sort.Strings(ps.Phases)
		skel = append(skel, ps)
	}
	sort.Slice(skel, func(i, j int) bool { return skel[i].Process < skel[j].Process })
	got, err := json.MarshalIndent(skel, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, '\n')
	golden := filepath.Join("testdata", "trace_failover.golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create it): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("trace skeleton drifted from golden (UPDATE_GOLDEN=1 to accept):\ngot:\n%swant:\n%s", got, want)
	}

	// The routing the trace describes is also on the gateway's /metrics:
	// two accepted submissions (original + resubmission), one reroute.
	mresp, err := testClient.Get(tc.gw.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var m GatewayMetrics
	if err := json.NewDecoder(mresp.Body).Decode(&m); err != nil {
		t.Fatalf("decode gateway metrics: %v", err)
	}
	if m.Counters.Submits != 2 || m.Counters.Reroutes != 1 {
		t.Errorf("gateway counters submits=%d reroutes=%d, want 2 and 1",
			m.Counters.Submits, m.Counters.Reroutes)
	}
	presp, err := testClient.Get(tc.gw.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer presp.Body.Close()
	if ct := presp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("prometheus content type %q", ct)
	}
	prom, err := io.ReadAll(presp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"advectgw_submits_total 2",
		"advectgw_reroutes_total 1",
		"advectgw_route_latency_seconds",
		"advectgw_go_goroutines",
	} {
		if !strings.Contains(string(prom), want) {
			t.Errorf("prometheus exposition missing %q", want)
		}
	}
}

// traceProcesses fetches a Chrome trace and returns its process names,
// sorted, and its number of gw.handoff spans.
func traceProcesses(t *testing.T, url string) ([]string, int) {
	t.Helper()
	resp, err := testClient.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc chromeDoc
	if resp.StatusCode != http.StatusOK || json.NewDecoder(resp.Body).Decode(&doc) != nil {
		t.Fatalf("GET %s: status %d, or not a Chrome trace", url, resp.StatusCode)
	}
	var names []string
	handoffs := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			names = append(names, ev.Args["name"].(string))
		}
		if ev.Ph == "X" && obs.Phase(ev.TID) == obs.PhaseGWHandoff {
			handoffs++
		}
	}
	sort.Strings(names)
	return names, handoffs
}

// TestGatewayJoinsTraceOnRead: a traced job routed through the gateway
// leaves its owner holding only the owner's spans — no gateway rank in the
// result's overlap report, no gateway process in the node's own trace —
// and the gateway's trace joins them to its routing spans with one handoff.
func TestGatewayJoinsTraceOnRead(t *testing.T) {
	tc := startCluster(t, Config{HealthInterval: time.Hour}, "n1", "n2")
	status, v := tc.submit(t, `{"type":"simulate","simulate":{"kind":"bulk","n":16,"steps":3,"tasks":2,"trace":true}}`)
	if status != http.StatusAccepted || v.TraceID == "" {
		t.Fatalf("submit status %d trace_id %q, want 202 and a minted id", status, v.TraceID)
	}
	tc.waitDone(t, v.ID)

	resp, err := testClient.Get(tc.gw.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var res struct {
		Overlap struct {
			Ranks []struct {
				Rank int `json:"rank"`
			} `json:"ranks"`
		} `json:"overlap"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || len(res.Overlap.Ranks) == 0 {
		t.Fatalf("result has no overlap report (err %v)", err)
	}
	for _, r := range res.Overlap.Ranks {
		if r.Rank == obs.RankGateway {
			t.Errorf("result overlap lists the gateway rank: %+v", res.Overlap.Ranks)
		}
	}

	joined, handoffs := traceProcesses(t, tc.gw.URL+"/v1/jobs/"+v.ID+"/trace")
	want := []string{"gateway", v.Node + " rank 0", v.Node + " rank 1", v.Node + " service"}
	if !reflect.DeepEqual(joined, want) || handoffs != 1 {
		t.Errorf("gateway trace processes %v with %d handoffs, want %v with 1", joined, handoffs, want)
	}
	own, handoffs := traceProcesses(t, tc.nodes[v.Node].URL+"/v1/jobs/"+v.ID+"/trace")
	if want := []string{"rank 0", "rank 1", "service"}; !reflect.DeepEqual(own, want) || handoffs != 0 {
		t.Errorf("node trace processes %v with %d handoffs, want %v with none", own, handoffs, want)
	}
}

// TestGatewayTraceDisabledAllocatesNothing: an untraced submission
// carries the zero submissionTrace through the whole routing path; every
// method on it must stay allocation-free so tracing costs nothing when
// off. ci.sh pairs this with BenchmarkGatewayTraceDisabled against the
// ns/op bound in BENCH_guards.json.
func TestGatewayTraceDisabledAllocatesNothing(t *testing.T) {
	var tr submissionTrace
	allocs := testing.AllocsPerRun(200, func() {
		tr.add(obs.PhaseGWSubmit, "n1", tr.clock(), tr.clock())
		tr.add(obs.PhaseGWRoute, "n1", tr.clock(), tr.clock())
		if tr.id != "" {
			t.Fatal("untraced submissionTrace produced trace output")
		}
	})
	if allocs != 0 {
		t.Errorf("disabled gateway trace path allocates %v per routed request, want 0", allocs)
	}
}

func BenchmarkGatewayTraceDisabled(b *testing.B) {
	var tr submissionTrace
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.add(obs.PhaseGWSubmit, "n1", tr.clock(), tr.clock())
		tr.add(obs.PhaseGWRoute, "n1", tr.clock(), tr.clock())
	}
}
