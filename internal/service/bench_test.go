package service

import (
	"container/list"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/session"
)

// The service benchmarks measure the end-to-end request path for a predict
// job — POST /v1/jobs through admission, and for the uncached variant
// through the queue, a worker, and the performance model. Recorded numbers
// for the same paths come from bench/ (service.cached_ms_p50,
// service.predict_uncached_ms_p50 in BENCHMARK.json).

// purge empties the cache without touching the counters, so a benchmark
// can measure the uncached path.
func (c *Cache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.order.Init()
	c.entries = map[string]*list.Element{}
}

func benchServer(b *testing.B) (*Server, *httptest.Server) {
	b.Helper()
	s := New(Config{Workers: 2, QueueCap: 64})
	ts := httptest.NewServer(s.Handler())
	b.Cleanup(ts.Close)
	return s, ts
}

func benchSubmit(b *testing.B, ts *httptest.Server, wantStatus int) string {
	b.Helper()
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(predictBody))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		b.Fatalf("submit: want %d, got %v", wantStatus, resp.Status)
	}
	var v View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		b.Fatal(err)
	}
	return v.ID
}

func (s *Server) benchWaitDone(b *testing.B, id string) {
	b.Helper()
	j, ok := s.store.Get(id)
	if !ok {
		b.Fatalf("job %s missing", id)
	}
	for !j.State().Terminal() {
		time.Sleep(50 * time.Microsecond)
	}
	if st := j.State(); st != StateDone {
		b.Fatalf("job %s landed in %s", id, st)
	}
}

// BenchmarkPredictCached measures a repeated identical predict request:
// after the first completion every submission is answered synchronously
// from the result cache (200, no queue, no worker).
func BenchmarkPredictCached(b *testing.B) {
	s, ts := benchServer(b)
	s.benchWaitDone(b, benchSubmit(b, ts, http.StatusAccepted))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSubmit(b, ts, http.StatusOK)
	}
}

// BenchmarkPredictUncached measures the same request with the cache purged
// each iteration, so every submission runs the full queue → worker →
// performance-model path and is polled to completion.
func BenchmarkPredictUncached(b *testing.B) {
	s, ts := benchServer(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s.cache.purge()
		b.StartTimer()
		s.benchWaitDone(b, benchSubmit(b, ts, http.StatusAccepted))
	}
}

// benchSession builds a live session without a server: the status path
// under benchmark touches only the session itself.
func benchSession() *liveSession {
	sc := session.Scenario{Kind: core.BulkSync, Problem: core.DefaultProblem(32, 100), Segment: 25, Retain: 4}
	v := sc.View("n1-sess-000042", 75, time.Unix(1, 0))
	v.Segments, v.Resumes, v.Updated = 3, 1, time.Unix(2, 0)
	v.LastCheckpoint, v.FieldHash, v.LastGF = 75, "0123456789abcdef", 1.5
	return &liveSession{sc: sc, v: v}
}

// TestSessionStatusAllocationBounded guards the status hot path: a View
// snapshot is a single struct copy under the session mutex, nothing more.
// BENCH_guards.json bounds its time; this pins its allocations.
func TestSessionStatusAllocationBounded(t *testing.T) {
	s := benchSession()
	allocs := testing.AllocsPerRun(1000, func() {
		v := s.View()
		if v.DoneSteps != 75 {
			t.Fatal("wrong view")
		}
	})
	if allocs > 0 {
		t.Fatalf("session status allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkSessionStatus is the GET /v1/sessions/{id} hot path with the
// HTTP layer peeled off.
func BenchmarkSessionStatus(b *testing.B) {
	s := benchSession()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := s.View()
		if v.DoneSteps != 75 {
			b.Fatal("wrong view")
		}
	}
}
