package service

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// readSSE consumes the stream until it has seen every wanted event name (or
// the deadline passes), then reports which were seen.
func readSSE(t *testing.T, resp *http.Response, want []string, deadline time.Duration) map[string]int {
	t.Helper()
	seen := map[string]int{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				seen[name]++
			}
			all := true
			for _, w := range want {
				if seen[w] == 0 {
					all = false
				}
			}
			if all {
				return
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(deadline):
	}
	resp.Body.Close() // unblocks the scanner goroutine if still reading
	<-done
	return seen
}

// TestStreamDeliversJobAndStats checks the SSE contract: a subscriber sees
// periodic stats events and the lifecycle events of jobs submitted while
// connected. Run with -race (ci.sh does), this also exercises the
// hub/handler paths under concurrent submits.
func TestStreamDeliversJobAndStats(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2, QueueCap: 8})

	resp, err := http.Get(ts.URL + "/v1/stream?interval=100ms")
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); resp.StatusCode != http.StatusOK || ct != "text/event-stream" {
		t.Fatalf("stream opened with %v, content type %q; want 200 and text/event-stream", resp.Status, ct)
	}

	// Concurrent submits while the subscriber is attached.
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, v := postJob(t, ts, predictBody)
			r.Body.Close()
			if v.ID != "" {
				waitState(t, ts, v.ID, StateDone)
			}
		}()
	}
	seen := readSSE(t, resp, []string{"stats", "job"}, 15*time.Second)
	wg.Wait()
	if seen["stats"] == 0 {
		t.Fatalf("no stats events seen: %v", seen)
	}
	if seen["job"] == 0 {
		t.Fatalf("no job events seen: %v", seen)
	}
}

// frameRecorder is a ResponseWriter that keeps what ServeStream did in
// order: each WriteHeader, and the bytes each Flush pushed out.
type frameRecorder struct {
	mu       sync.Mutex
	header   http.Header
	statuses []int
	sentType string // Content-Type when the status line went out
	pending  []byte
	flushed  []string
	wake     chan struct{} // poked on every Flush
}

func (f *frameRecorder) Header() http.Header { return f.header }

func (f *frameRecorder) WriteHeader(code int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.statuses = append(f.statuses, code)
	f.sentType = f.header.Get("Content-Type")
}

func (f *frameRecorder) Write(p []byte) (int, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.statuses) == 0 {
		f.statuses = append(f.statuses, -1) // a body byte before the status line
	}
	f.pending = append(f.pending, p...)
	return len(p), nil
}

func (f *frameRecorder) Flush() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.flushed = append(f.flushed, string(f.pending))
	f.pending = nil
	select {
	case f.wake <- struct{}{}:
	default:
	}
}

func (f *frameRecorder) frames() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.flushed...)
}

// TestServeStreamFlushesEachFrame pins what the wire cannot show: one
// status line, written after Content-Type is set and before any frame;
// every frame — snapshot, hub event, heartbeat comment — complete ("\n\n")
// and flushed on its own, so none waits in a buffer for the next; and the
// handler returns when the client goes away and when the hub closes.
func TestServeStreamFlushesEachFrame(t *testing.T) {
	for _, end := range []string{"client disconnect", "hub close"} {
		t.Run(end, func(t *testing.T) {
			hub := telemetry.NewHub()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			req := httptest.NewRequest(http.MethodGet, "/v1/stream", nil).WithContext(ctx)
			rec := &frameRecorder{header: http.Header{}, wake: make(chan struct{}, 1)}
			returned := make(chan struct{})
			go func() {
				defer close(returned)
				ServeStream(rec, req, hub, time.Hour, 10*time.Millisecond, "stats", func() any { return map[string]int{"n": 1} })
			}()

			waitFrame := func(frame string) {
				t.Helper()
				for timeout := time.After(10 * time.Second); !slices.Contains(rec.frames(), frame); {
					select {
					case <-rec.wake:
					case <-timeout:
						t.Fatalf("frame %q never flushed on its own; flushes so far: %q", frame, rec.frames())
					}
				}
			}
			waitFrame("event: stats\ndata: {\"n\":1}\n\n")
			waitFrame(": heartbeat\n\n")
			// Subscribed before the first frame went out, so this is delivered.
			hub.Publish(telemetry.Event{Name: "job", Data: []byte(`{"id":"j1"}`)})
			waitFrame("event: job\ndata: {\"id\":\"j1\"}\n\n")

			if end == "hub close" {
				hub.Close()
			} else {
				cancel()
			}
			select {
			case <-returned:
			case <-time.After(10 * time.Second):
				t.Fatalf("handler still running after %s", end)
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			if len(rec.statuses) != 1 || rec.statuses[0] != http.StatusOK {
				t.Errorf("status lines %v, want exactly one 200 before the first byte", rec.statuses)
			}
			if rec.sentType != "text/event-stream" {
				t.Errorf("status line went out with content type %q, want text/event-stream", rec.sentType)
			}
			if len(rec.pending) != 0 {
				t.Errorf("handler returned with %q unflushed", rec.pending)
			}
			for _, f := range rec.flushed {
				if !strings.HasSuffix(f, "\n\n") || strings.Count(f, "\n\n") != 1 {
					t.Errorf("one flush pushed %q, want exactly one complete frame", f)
				}
			}
		})
	}
}

// TestStreamBadInterval checks the ?interval= validation path.
func TestStreamBadInterval(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/v1/stream?interval=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad interval: want 400, got %v", resp.Status)
	}
}

// TestStreamNoGoroutineLeak is the race-soundness satellite: subscribers
// that disconnect mid-stream, plus a drain that closes the hub, must leave
// no handler or hub goroutines behind. Goroutine counts are compared
// before/after with polling, since handler teardown is asynchronous.
func TestStreamNoGoroutineLeak(t *testing.T) {
	s := New(Config{Workers: 2, QueueCap: 8, DrainTimeout: 10 * time.Second})
	ts := httptest.NewServer(s.Handler())

	before := runtime.NumGoroutine()

	// A batch of subscribers; every one disconnects abruptly.
	var resps []*http.Response
	for i := 0; i < 4; i++ {
		resp, err := http.Get(ts.URL + "/v1/stream?interval=100ms")
		if err != nil {
			t.Fatal(err)
		}
		resps = append(resps, resp)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, v := postJob(t, ts, predictBody)
			r.Body.Close()
			if v.ID != "" {
				waitState(t, ts, v.ID, StateDone)
			}
		}()
	}
	wg.Wait()
	for _, resp := range resps {
		resp.Body.Close() // client walks away; handler must notice and return
	}

	// One more subscriber left attached: the drain must close the hub and
	// end its stream too.
	last, err := http.Get(ts.URL + "/v1/stream?interval=50ms")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Shutdown(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	buf := make([]byte, 4096)
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, err := last.Body.Read(buf); err != nil {
			break // EOF: the handler returned after the hub closed
		}
		if time.Now().After(deadline) {
			t.Fatal("stream did not end after drain")
		}
	}
	last.Body.Close()

	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	// Allow teardown to settle; fail only if goroutines never return to
	// (near) the baseline.
	deadline = time.Now().Add(10 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(20 * time.Millisecond)
	}
}
