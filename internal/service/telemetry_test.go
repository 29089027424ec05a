package service

import (
	"encoding/json"
	"math"
	"net/http"
	"runtime"
	"testing"
	"time"
)

// tracedBody is a hybrid run whose recorder produces both MPI/compute and
// PCIe/kernel overlap, exercising every telemetry feed at once.
const tracedBody = `{"type":"simulate","simulate":{"kind":"hybrid-overlap","n":16,"steps":3,"tasks":2,"threads":2,"thickness":2,"trace":true}}`

// TestStitchedTrace is the tentpole acceptance test: a traced job's
// exported Chrome trace contains the service-level request lifecycle
// (queue-wait, worker-exec on the synthetic service process) AND the
// runner's per-rank phase spans, on one shared timeline — the runner's
// wall spans fall inside the service's worker-exec window.
func TestStitchedTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	resp, v := postJob(t, ts, tracedBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v", resp.Status)
	}
	waitState(t, ts, v.ID, StateDone)

	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer rr.Body.Close()
	if rr.StatusCode != http.StatusOK {
		t.Fatalf("trace endpoint: %v", rr.Status)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			Dur  float64 `json:"dur"`
			PID  int     `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(rr.Body).Decode(&doc); err != nil {
		t.Fatalf("trace does not decode: %v", err)
	}

	svc := map[string]bool{}
	var execStart, execEnd float64
	ranks := map[int]bool{}
	var runnerLo, runnerHi float64 = math.Inf(1), math.Inf(-1)
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.PID < 0 {
			svc[ev.Name] = true
			if ev.Name == "svc.exec" {
				execStart, execEnd = ev.TS, ev.TS+ev.Dur
			}
			continue
		}
		ranks[ev.PID] = true
		if ev.Cat == "wall" {
			runnerLo = math.Min(runnerLo, ev.TS)
			runnerHi = math.Max(runnerHi, ev.TS+ev.Dur)
		}
	}
	for _, want := range []string{"svc.receive", "svc.queue", "svc.exec", "svc.encode"} {
		if !svc[want] {
			t.Fatalf("trace lacks service span %q (got %v)", want, svc)
		}
	}
	if !ranks[0] || !ranks[1] {
		t.Fatalf("trace lacks per-rank runner spans (ranks %v)", ranks)
	}
	if execEnd <= execStart {
		t.Fatalf("svc.exec window [%g, %g] empty", execStart, execEnd)
	}
	// Shared timeline: every runner wall span sits inside the worker-exec
	// window (1µs slack for timestamp rounding).
	if runnerLo < execStart-1 || runnerHi > execEnd+1 {
		t.Fatalf("runner spans [%g, %g]µs escape the svc.exec window [%g, %g]µs",
			runnerLo, runnerHi, execStart, execEnd)
	}
}

// TestStatsAgreesWithOverlapReport is the second acceptance criterion: the
// /v1/stats rolling-window overlap totals agree with the post-hoc overlap
// report of the same (single) job within 1%.
func TestStatsAgreesWithOverlapReport(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	_, v := postJob(t, ts, tracedBody)
	waitState(t, ts, v.ID, StateDone)

	rr, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	var res SimulateResult
	if err := json.NewDecoder(rr.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	rr.Body.Close()
	var wantComm, wantHidden float64
	for _, p := range res.Overlap.Total {
		wantComm += p.CommSec
		wantHidden += p.OverlapSec
	}
	if wantComm <= 0 || wantHidden <= 0 {
		t.Fatalf("report totals implausible: comm %g, hidden %g", wantComm, wantHidden)
	}

	sr, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer sr.Body.Close()
	var stats TelemetryStats
	if err := json.NewDecoder(sr.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Overlap.Jobs != 1 {
		t.Fatalf("window saw %d traced jobs, want 1", stats.Overlap.Jobs)
	}
	if rel := math.Abs(stats.Overlap.CommSec-wantComm) / wantComm; rel > 0.01 {
		t.Fatalf("window comm %g vs report %g (%.2f%% off)", stats.Overlap.CommSec, wantComm, rel*100)
	}
	if rel := math.Abs(stats.Overlap.HiddenSec-wantHidden) / wantHidden; rel > 0.01 {
		t.Fatalf("window hidden %g vs report %g (%.2f%% off)", stats.Overlap.HiddenSec, wantHidden, rel*100)
	}
	if stats.Overlap.Fraction <= 0 || stats.Overlap.Fraction > 1 {
		t.Fatalf("window fraction %g out of (0, 1]", stats.Overlap.Fraction)
	}

	// The rest of the document tracks the same job.
	if stats.Exec[TypeSimulate].Count != 1 {
		t.Fatalf("exec window count = %d, want 1", stats.Exec[TypeSimulate].Count)
	}
	if stats.QueueWait.Count != 1 || stats.QueueWait.P95 < 0 {
		t.Fatalf("queue-wait window %+v implausible", stats.QueueWait)
	}
	wantPoints := 16.0 * 16 * 16 * 3
	if stats.Points.Sum != wantPoints {
		t.Fatalf("points sum %g, want %g", stats.Points.Sum, wantPoints)
	}
	if stats.WindowSec != 60 {
		t.Fatalf("default stats window %g, want 60", stats.WindowSec)
	}
	if stats.Workers.Total < 1 || stats.Queue.Capacity != 4 {
		t.Fatalf("gauges %+v / %+v implausible", stats.Workers, stats.Queue)
	}
}

// TestDoneJobIsAlreadyCounted: the worker records a job in every window and
// counter before it publishes the terminal state, so a client that sees
// "done" and reads /v1/stats or /metrics at once finds its own job there.
// The state is polled in-process without sleeping and the documents taken
// as the handlers take them, which leaves the worker no time to catch up;
// under -race it also checks the snapshots against the worker's writes.
func TestDoneJobIsAlreadyCounted(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 2, QueueCap: 8})
	deadline := time.Now().Add(60 * time.Second)
	for i := uint64(1); i <= 25; i++ {
		j, err := s.Submit(Request{Type: TypeSimulate, Simulate: &SimulateRequest{
			Kind: "nonblocking", N: 8, Steps: int(i), Tasks: 2, Trace: true, // distinct steps: never cached
		}})
		if err != nil {
			t.Fatal(err)
		}
		for !j.State().Terminal() {
			if time.Now().After(deadline) {
				t.Fatalf("job %s stuck in %s", j.ID(), j.State())
			}
			runtime.Gosched()
		}
		if v := j.View(); v.State != StateDone {
			t.Fatalf("job %s: %s (%s)", v.ID, v.State, v.Error)
		}
		stats, metrics := s.StatsSnapshot(), s.MetricsSnapshot()
		if stats.Overlap.Jobs != i || stats.Exec[TypeSimulate].Count != i || stats.Points.Count != i {
			t.Fatalf("job %d seen done, windows have %d traced, %d executed, %d point samples",
				i, stats.Overlap.Jobs, stats.Exec[TypeSimulate].Count, stats.Points.Count)
		}
		if got := metrics.Jobs[TypeSimulate][outcomeDone]; got != i {
			t.Fatalf("job %d seen done, /metrics counts %d", i, got)
		}
		if _, hit := s.cache.Get(j.cacheKey); !hit {
			t.Fatalf("job %d seen done, its result is not cached", i)
		}
	}
}

// TestHealthzDrainTransition covers the load-balancer contract: healthy
// instances answer 200, draining ones 503 with {"status":"draining"}.
func TestHealthzDrainTransition(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2, DrainTimeout: 5 * time.Second})
	check := func(wantCode int, wantStatus string) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != wantCode {
			t.Fatalf("healthz: want %d, got %v", wantCode, resp.Status)
		}
		var doc struct {
			Status string `json:"status"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
			t.Fatal(err)
		}
		if doc.Status != wantStatus {
			t.Fatalf("healthz status = %q, want %q", doc.Status, wantStatus)
		}
	}
	check(http.StatusOK, "ok")
	if err := s.Shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	check(http.StatusServiceUnavailable, "draining")
}
