package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, body string) (*http.Response, View) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v View
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode job view: %v", err)
		}
	}
	return resp, v
}

func waitState(t *testing.T, ts *httptest.Server, id string, want State) View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v View
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("job %s landed in %s (error %q), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s, want %s", id, v.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func metricsJSON(t *testing.T, ts *httptest.Server) Snapshot {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var s Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

const simulateBody = `{"type":"simulate","simulate":{"kind":"bulk","n":16,"steps":5,"tasks":2,"threads":2,"verify":true}}`
const predictBody = `{"type":"predict","predict":{"machine":"Yona","kind":"hybrid-overlap","cores":96,"threads":6}}`

// slowBody is a simulate job big enough that it cannot finish before the
// test cancels it (~10^9 point-updates), keeping a worker busy on demand.
const slowBody = `{"type":"simulate","simulate":{"kind":"bulk","n":64,"steps":4000,"tasks":2}}`

// TestSimulatePollResult is the end-to-end flow: submit a functional
// simulation, poll it to done, and fetch the verified result.
func TestSimulatePollResult(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	resp, v := postJob(t, ts, simulateBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v", resp.Status)
	}
	if v.State != StateQueued && v.State != StateRunning {
		t.Fatalf("fresh job in state %s", v.State)
	}
	waitState(t, ts, v.ID, StateDone)

	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("result: %v", rr.Status)
	}
	var res SimulateResult
	if err := json.NewDecoder(rr.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "bulk" || res.GF <= 0 {
		t.Fatalf("implausible result %+v", res)
	}
	if res.L2 <= 0 || res.L2 > 1 {
		t.Fatalf("implausible L2 %v", res.L2)
	}
	if res.Stats["tasks"] != 2 {
		t.Fatalf("stats %v lack tasks=2", res.Stats)
	}
}

// TestResultCacheCannotBePlanted: no route writes the result cache. A
// client that PUTs a forged document under a request's cache key is
// refused, and submitting that request executes it and returns the real
// result, not the forgery.
func TestResultCacheCannotBePlanted(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	var req Request
	if err := json.Unmarshal([]byte(simulateBody), &req); err != nil {
		t.Fatal(err)
	}
	put, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/cache/"+req.CacheKey(),
		strings.NewReader(`{"kind":"planted","gf":-1}`))
	if err != nil {
		t.Fatal(err)
	}
	put.Header.Set("Content-Type", "application/json")
	presp, err := http.DefaultClient.Do(put)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, presp.Body)
	presp.Body.Close()
	if presp.StatusCode != http.StatusNotFound && presp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("PUT /v1/cache/{key}: %v, want 404 or 405", presp.Status)
	}

	resp, v := postJob(t, ts, simulateBody)
	if resp.StatusCode != http.StatusAccepted || v.CacheHit {
		t.Fatalf("submit after the PUT: %v, cache_hit %v; want 202 and an execution", resp.Status, v.CacheHit)
	}
	waitState(t, ts, v.ID, StateDone)
	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	var res SimulateResult
	if err := json.NewDecoder(rr.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Kind != "bulk" || res.GF <= 0 {
		t.Fatalf("result %+v is not the executed run", res)
	}
}

// TestExperimentJob runs a harness experiment through the service.
func TestExperimentJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	resp, v := postJob(t, ts, `{"type":"experiment","experiment":{"id":"table1"}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v", resp.Status)
	}
	waitState(t, ts, v.ID, StateDone)
	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	var res ExperimentResult
	if err := json.NewDecoder(rr.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.ID != "table1" || res.Output == "" {
		t.Fatalf("implausible experiment result %+v", res)
	}
}

// TestPredictCacheHit checks the content-addressed cache: a repeated
// identical predict request is answered instantly from the cache, visible
// both on the job (cache_hit, immediate done) and in the /metrics
// counters (JSON and Prometheus text).
func TestPredictCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})

	resp, v1 := postJob(t, ts, predictBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %v", resp.Status)
	}
	waitState(t, ts, v1.ID, StateDone)

	resp, v2 := postJob(t, ts, predictBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cached submit: want 200, got %v", resp.Status)
	}
	if !v2.CacheHit || v2.State != StateDone {
		t.Fatalf("second submit not served from cache: %+v", v2)
	}
	if v1.CacheKey != v2.CacheKey {
		t.Fatalf("cache keys differ: %s vs %s", v1.CacheKey, v2.CacheKey)
	}

	// Both jobs must deliver the same result document.
	var docs [2]PredictResult
	for i, id := range []string{v1.ID, v2.ID} {
		rr, err := http.Get(ts.URL + "/v1/jobs/" + id + "/result")
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(rr.Body).Decode(&docs[i]); err != nil {
			t.Fatal(err)
		}
		rr.Body.Close()
	}
	if !reflect.DeepEqual(docs[0], docs[1]) {
		t.Fatalf("cached result differs: %+v vs %+v", docs[0], docs[1])
	}
	if docs[1].GF <= 0 {
		t.Fatalf("implausible GF %v", docs[1].GF)
	}

	snap := metricsJSON(t, ts)
	if snap.Cache.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", snap.Cache.Hits)
	}
	if snap.Cache.Misses < 1 {
		t.Fatalf("cache misses = %d, want >= 1", snap.Cache.Misses)
	}
	if snap.Jobs[TypePredict][outcomeCached] != 1 {
		t.Fatalf("cached outcome counter = %v", snap.Jobs[TypePredict])
	}

	// The same counters in Prometheus text form.
	rr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	raw, err := io.ReadAll(rr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		`advectd_cache_events_total{event="hit"} 1`,
		`advectd_jobs_total{type="predict",outcome="cached"} 1`,
		`advectd_job_duration_seconds_count{type="predict"} 1`,
		"# TYPE advectd_queue_depth gauge",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}
}

// TestQueueBackpressure checks admission control: with one worker pinned
// and the queue full, the next submission is shed with 429 and a
// Retry-After hint instead of queueing unboundedly.
func TestQueueBackpressure(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 1, DrainTimeout: 10 * time.Second})

	// First slow job occupies the worker; the distinct second one fills
	// the queue. (Identical bodies would dedupe through the cache only
	// after completion, but distinct bodies keep the scenario honest.)
	_, v1 := postJob(t, ts, slowBody)
	waitState(t, ts, v1.ID, StateRunning)
	resp, v2 := postJob(t, ts, `{"type":"simulate","simulate":{"kind":"bulk","n":64,"steps":4001,"tasks":2}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("queue fill: %v", resp.Status)
	}

	resp, _ = postJob(t, ts, `{"type":"simulate","simulate":{"kind":"bulk","n":64,"steps":4002,"tasks":2}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload: want 429, got %v", resp.Status)
	}
	ra, err := strconv.Atoi(resp.Header.Get("Retry-After"))
	if err != nil || ra < 1 {
		t.Fatalf("Retry-After %q not a positive integer", resp.Header.Get("Retry-After"))
	}
	snap := metricsJSON(t, ts)
	if snap.Jobs[TypeSimulate][outcomeRejected] != 1 {
		t.Fatalf("rejected counter %v", snap.Jobs[TypeSimulate])
	}
	if snap.Queue.Depth != 1 || snap.Queue.Capacity != 1 {
		t.Fatalf("queue gauges %+v", snap.Queue)
	}
	if snap.Workers.Busy != 1 || snap.Workers.Utilization != 1 {
		t.Fatalf("worker gauges %+v", snap.Workers)
	}
	// /v1/stats reads the same gauges: the busy worker shows there too.
	if w := statsDoc(t, ts).Workers; w.Busy != 1 || w.Utilization != 1 {
		t.Fatalf("/v1/stats worker gauges %+v, want one busy worker at utilization 1", w)
	}

	// Cancel both jobs so shutdown is quick.
	for _, id := range []string{v1.ID, v2.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		rr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		rr.Body.Close()
	}
	waitState(t, ts, v1.ID, StateCancelled)
	if err := s.Shutdown(); err != nil {
		t.Fatalf("shutdown after cancel: %v", err)
	}
}

// TestCancelRunningJob checks that DELETE on a running simulation stops it
// between timesteps and surfaces the cancelled state and 410 result.
func TestCancelRunningJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	_, v := postJob(t, ts, slowBody)
	waitState(t, ts, v.ID, StateRunning)

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cancel: %v", resp.Status)
	}
	waitState(t, ts, v.ID, StateCancelled)

	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusGone {
		t.Fatalf("result of cancelled job: want 410, got %v", rr.Status)
	}

	// Cancelling a finished job conflicts.
	req, _ = http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+v.ID, nil)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("re-cancel: want 409, got %v", resp.Status)
	}
}

// TestGracefulDrain checks that Shutdown finishes queued and running jobs
// when they fit in the deadline, and that admission returns 503 afterward.
func TestGracefulDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8, DrainTimeout: 60 * time.Second})
	var ids []string
	for i := 0; i < 3; i++ {
		body := fmt.Sprintf(`{"type":"simulate","simulate":{"kind":"single","n":16,"steps":%d}}`, 3+i)
		resp, v := postJob(t, ts, body)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %v", i, resp.Status)
		}
		ids = append(ids, v.ID)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for _, id := range ids {
		j, ok := s.store.Get(id)
		if !ok || j.State() != StateDone {
			t.Fatalf("job %s not drained to done (state %v)", id, j.State())
		}
	}
	resp, _ := postJob(t, ts, predictBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain submit: want 503, got %v", resp.Status)
	}
}

// TestDrainDeadlineCancels checks the other drain arm: a job that cannot
// finish by the deadline is cancelled through its context and the drain
// reports it.
func TestDrainDeadlineCancels(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2, DrainTimeout: 100 * time.Millisecond})
	_, v := postJob(t, ts, slowBody)
	waitState(t, ts, v.ID, StateRunning)
	if err := s.Shutdown(); err == nil {
		t.Fatal("drain of a stuck job reported success")
	}
	j, _ := s.store.Get(v.ID)
	if st := j.State(); st != StateCancelled {
		t.Fatalf("stuck job state %v, want cancelled", st)
	}
}

// TestDrainIsVisibleWithIts202: once POST /v1/drain has answered, with no
// wait, the node refuses a submit and a session create with 503 and its
// /healthz answers 503; of two concurrent drains exactly one starts the
// drain and the other reports it already draining. Ten nodes, because a
// late drain shows only now and then.
func TestDrainIsVisibleWithIts202(t *testing.T) {
	drain := func(ts *httptest.Server) bool {
		resp, err := http.Post(ts.URL+"/v1/drain", "", nil)
		if err != nil {
			t.Error(err)
			return false
		}
		defer resp.Body.Close()
		var doc struct {
			Already bool `json:"already_draining"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil || resp.StatusCode != http.StatusAccepted {
			t.Errorf("drain: status %d, decode error %v", resp.StatusCode, err)
		}
		return !doc.Already
	}
	for i := 0; i < 10; i++ {
		_, ts := newTestServer(t, Config{Workers: 1, SessionDir: t.TempDir(), DrainTimeout: 10 * time.Second})
		drain(ts)
		if resp, _ := postJob(t, ts, predictBody); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("node %d: submit after the drain's 202: %v, want 503", i, resp.Status)
		}
		if resp, _ := postSession(t, ts, `{"simulate":{"kind":"bulk","n":8,"steps":4},"segment":2}`); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("node %d: session create after the drain's 202: %v, want 503", i, resp.Status)
		}
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("node %d: /healthz after the drain's 202: %v, want 503", i, resp.Status)
		}

		_, ts = newTestServer(t, Config{Workers: 1, DrainTimeout: 10 * time.Second})
		var started atomic.Int32
		var wg sync.WaitGroup
		for range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if drain(ts) {
					started.Add(1)
				}
			}()
		}
		wg.Wait()
		if n := started.Load(); n != 1 {
			t.Fatalf("node %d: two concurrent drains started %d drains, want 1", i, n)
		}
	}
}

// TestFailedJob checks that an execution error lands in failed with the
// message, and the result endpoint reports it.
func TestFailedJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	// gpu-resident requires tasks=1; tasks=2 fails inside the runner,
	// after validation.
	_, v := postJob(t, ts, `{"type":"simulate","simulate":{"kind":"gpu","n":16,"steps":2,"tasks":2}}`)
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view View
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if view.State == StateFailed {
			if view.Error == "" {
				t.Fatal("failed job lacks an error message")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %s", view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	if rr.StatusCode != http.StatusInternalServerError {
		t.Fatalf("result of failed job: want 500, got %v", rr.Status)
	}
}

// TestValidationErrors checks the 400/404 paths.
func TestValidationErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2})
	bad := []string{
		`{`,
		`{"type":"simulate"}`,
		`{"type":"teleport","simulate":{"kind":"bulk","n":16,"steps":1}}`,
		`{"type":"simulate","simulate":{"kind":"warp-drive","n":16,"steps":1}}`,
		`{"type":"simulate","simulate":{"kind":"bulk","n":100000,"steps":1}}`,
		`{"type":"simulate","simulate":{"kind":"bulk","n":16,"steps":1},"predict":{"machine":"Yona","kind":"bulk","cores":12}}`,
		`{"type":"predict","predict":{"machine":"","kind":"bulk","cores":12}}`,
		`{"type":"experiment","experiment":{"id":""}}`,
	}
	for _, body := range bad {
		resp, _ := postJob(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: want 400, got %v", body, resp.Status)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: want 404, got %v", resp.Status)
	}

	// An unknown experiment id passes validation but fails in execution.
	_, v := postJob(t, ts, `{"type":"experiment","experiment":{"id":"fig99"}}`)
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/v1/jobs/" + v.ID)
		if err != nil {
			t.Fatal(err)
		}
		var view View
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if view.State == StateFailed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("unknown experiment stuck in %s", view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCatalogues checks the discovery endpoints.
func TestCatalogues(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/kinds")
	if err != nil {
		t.Fatal(err)
	}
	var kinds struct {
		Kinds []struct{ ID string } `json:"kinds"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&kinds); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(kinds.Kinds) != 10 {
		t.Fatalf("want 10 kinds, got %d", len(kinds.Kinds))
	}
	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var exps struct {
		Experiments []struct{ ID string } `json:"experiments"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&exps); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(exps.Experiments) < 10 {
		t.Fatalf("only %d experiments listed", len(exps.Experiments))
	}
	seen := map[string]bool{}
	for _, e := range exps.Experiments {
		if seen[e.ID] {
			t.Fatalf("experiment %s listed twice", e.ID)
		}
		seen[e.ID] = true
	}
}

// TestTracedSimulateJob checks per-job trace capture: a simulate request
// with trace set returns the overlap report (with the imbalance section)
// and a trace_url in its slim result document, keyed separately from the
// untraced computation; the Chrome trace itself lives behind trace_url.
func TestTracedSimulateJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	traced := `{"type":"simulate","simulate":{"kind":"hybrid-overlap","n":16,"steps":3,"tasks":2,"threads":2,"thickness":2,"trace":true}}`
	resp, v := postJob(t, ts, traced)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v", resp.Status)
	}
	if !strings.HasPrefix(v.CacheKey, "simt-") {
		t.Fatalf("traced cache key %q lacks the simt- prefix", v.CacheKey)
	}
	waitState(t, ts, v.ID, StateDone)

	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	var res SimulateResult
	if err := json.NewDecoder(rr.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.Overlap == nil || res.Overlap.Spans == 0 {
		t.Fatalf("traced result lacks an overlap report: %+v", res.Overlap)
	}
	if f := res.Overlap.Pair(obs.PairMPICompute).Fraction; f <= 0 {
		t.Fatalf("hybrid-overlap mpi/compute fraction = %v, want > 0", f)
	}
	if im := res.Overlap.Imbalance; im == nil || len(im.Ranks) != 2 {
		t.Fatalf("overlap report lacks a two-rank imbalance section: %+v", im)
	}
	if want := "/v1/jobs/" + v.ID + "/trace"; res.TraceURL != want {
		t.Fatalf("trace_url = %q, want %q", res.TraceURL, want)
	}

	// The raw result document does not embed the trace blob.
	raw, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	rawBody, _ := io.ReadAll(raw.Body)
	raw.Body.Close()
	if strings.Contains(string(rawBody), `"chrome_trace"`) {
		t.Fatal("result document still embeds chrome_trace")
	}

	// The untraced flavor of the same computation keys separately and
	// returns a plain document.
	untraced := strings.Replace(traced, `,"trace":true`, "", 1)
	resp, v2 := postJob(t, ts, untraced)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("untraced submit: %v", resp.Status)
	}
	if !strings.HasPrefix(v2.CacheKey, "sim-") || v2.CacheKey == v.CacheKey {
		t.Fatalf("untraced cache key %q should differ from traced %q", v2.CacheKey, v.CacheKey)
	}
	waitState(t, ts, v2.ID, StateDone)
	rr2, err := http.Get(ts.URL + "/v1/jobs/" + v2.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer rr2.Body.Close()
	var plain SimulateResult
	if err := json.NewDecoder(rr2.Body).Decode(&plain); err != nil {
		t.Fatal(err)
	}
	if plain.Overlap != nil || plain.TraceURL != "" {
		t.Fatal("untraced result carries trace payload")
	}
	// And its trace endpoint explains itself with 404.
	tr, err := http.Get(ts.URL + "/v1/jobs/" + v2.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	tr.Body.Close()
	if tr.StatusCode != http.StatusNotFound {
		t.Fatalf("untraced trace endpoint: want 404, got %v", tr.Status)
	}
}

// syncBuffer is a goroutine-safe log sink: the worker writes its "job
// finished" event after the job state lands, so the test must not read an
// unsynchronized buffer concurrently.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (sb *syncBuffer) Write(p []byte) (int, error) {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.Write(p)
}

func (sb *syncBuffer) String() string {
	sb.mu.Lock()
	defer sb.mu.Unlock()
	return sb.b.String()
}

// TestStructuredLogging checks the slog lifecycle events at the service
// level: submit, start, and finish all carry the job ID and type.
func TestStructuredLogging(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewTextHandler(&buf, nil))
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, Logger: logger})
	_, v := postJob(t, ts, predictBody)
	waitState(t, ts, v.ID, StateDone)

	// The finish event is written just after the state lands; wait for it.
	deadline := time.Now().Add(10 * time.Second)
	for !strings.Contains(buf.String(), `msg="job finished"`) {
		if time.Now().After(deadline) {
			t.Fatalf("no finish event logged:\n%s", buf.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	logs := buf.String()
	for _, want := range []string{
		`msg="job submitted"`, `msg="job started"`, `msg="job finished"`,
		"job=" + v.ID, "type=predict", "state=done", "duration=",
	} {
		if !strings.Contains(logs, want) {
			t.Fatalf("logs missing %q:\n%s", want, logs)
		}
	}
}

// TestPprofMounting checks that the profiling endpoints exist exactly when
// Config.EnablePprof is set.
func TestPprofMounting(t *testing.T) {
	_, off := newTestServer(t, Config{})
	resp, err := http.Get(off.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without the flag: want 404, got %v", resp.Status)
	}

	_, on := newTestServer(t, Config{EnablePprof: true})
	resp, err = http.Get(on.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof with the flag: want 200, got %v", resp.Status)
	}
}

// TestSubmitRaceWithWorkers submits uncached jobs while two workers drain
// the queue, so a worker can claim a job before Submit returns: under
// -race it fails if anything the worker reads is written after the push.
func TestSubmitRaceWithWorkers(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueCap: 64})
	var jobs []*Job
	for i := 0; i < 50; i++ {
		j, err := s.Submit(Request{Type: TypePredict, Predict: &PredictRequest{
			Machine: "JaguarPF", Kind: "bulk", Cores: 12 * (i + 1), Threads: 1,
		}})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	deadline := time.Now().Add(30 * time.Second)
	for _, j := range jobs {
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", j.ID(), j.State())
			}
			time.Sleep(time.Millisecond)
		}
		if v := j.View(); v.State != StateDone {
			t.Fatalf("job %s: %s (%s)", v.ID, v.State, v.Error)
		}
	}
}

// TestInfeasiblePredictFailsJob: a task count with a prime factor larger
// than the grid has no decomposition. The job must fail with the reason and
// the daemon must keep serving.
func TestInfeasiblePredictFailsJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	_, v := postJob(t, ts, `{"type":"predict","predict":{"machine":"JaguarPF","kind":"bulk","cores":18456}}`)
	if v := waitState(t, ts, v.ID, StateFailed); !strings.Contains(v.Error, "no feasible decomposition") {
		t.Fatalf("error %q does not name the cause", v.Error)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after the failed job: %v", resp.Status)
	}
	_, v = postJob(t, ts, `{"type":"predict","predict":{"machine":"JaguarPF","kind":"bulk","cores":18432}}`)
	waitState(t, ts, v.ID, StateDone)
}

// TestExecuteRecoversPanic: a panic below execute is a bug, but it must
// cost one job, not the process.
func TestExecuteRecoversPanic(t *testing.T) {
	_, _, err := execute(context.Background(), Request{Type: TypePredict}, nil, "job-x")
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("execute on a request with no body: err = %v, want a recovered panic", err)
	}
}

// TestConfigFields is the settable-values ratchet of a node: a new Config
// field is a visible edit to this list.
func TestConfigFields(t *testing.T) {
	want := []string{"Workers", "QueueCap", "CacheEntries", "DrainTimeout", "Limits",
		"Logger", "EnablePprof", "NodeID", "FlightRules", "SessionDir"}
	var got []string
	typ := reflect.TypeOf(Config{})
	for i := range typ.NumField() {
		got = append(got, typ.Field(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("service.Config fields %v, want %v", got, want)
	}
}
