package service

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/session"
)

// spy wraps a registered runner so a test can see — and hold, or break —
// every Run the node makes, whichever path it came in by.
type spy struct {
	core.Runner
	enter func(p core.Problem) (leave func())
}

func (s spy) Run(p core.Problem, o core.Options) (*core.Result, error) {
	defer s.enter(p)()
	return s.Runner.Run(p, o)
}

// spyKind replaces kind's runner with a spy for the length of the test.
func spyKind(t *testing.T, kind core.Kind, enter func(p core.Problem) (leave func())) {
	t.Helper()
	real, err := core.New(kind)
	if err != nil {
		t.Fatal(err)
	}
	core.Register(kind, func() core.Runner { return spy{real, enter} })
	t.Cleanup(func() { core.Register(kind, func() core.Runner { return real }) })
}

// heldNode is a one-worker node with sessions whose worker is pinned under
// a 7-step "single" job (jobID) that stays inside Run until release is
// called; mostRunning reports the most Runs that were ever in flight at once.
type heldNode struct {
	s           *Server
	ts          *httptest.Server
	jobID       string
	release     func()
	mostRunning func() int
}

func holdWorker(t *testing.T) heldNode {
	t.Helper()
	var mu sync.Mutex
	var cur, most int
	gate := make(chan struct{})
	spyKind(t, core.SingleTask, func(p core.Problem) func() {
		mu.Lock()
		cur++
		most = max(most, cur)
		mu.Unlock()
		if p.Steps == 7 {
			<-gate
		}
		return func() {
			mu.Lock()
			cur--
			mu.Unlock()
		}
	})
	srv, ts := newTestServer(t, Config{Workers: 1, SessionDir: t.TempDir()})
	resp, job := postJob(t, ts, `{"type":"simulate","simulate":{"kind":"single","n":8,"steps":7}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %v", resp.Status)
	}
	waitState(t, ts, job.ID, StateRunning)
	var once sync.Once
	release := func() { once.Do(func() { close(gate) }) }
	t.Cleanup(func() {
		release()
		srv.Shutdown() // no session write may outlive the test's TempDir
	})
	return heldNode{srv, ts, job.ID, release, func() int {
		mu.Lock()
		defer mu.Unlock()
		return most
	}}
}

// stillWaiting watches a session for a short window and fails if it moves:
// with the node's only worker held, its segment has nowhere to run.
func stillWaiting(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	for deadline := time.Now().Add(60 * time.Millisecond); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if v := getSession(t, ts, id); v.DoneSteps != 0 || v.State != session.StateRunning {
			t.Fatalf("session moved (%s at step %d) while the only worker was held", v.State, v.DoneSteps)
		}
		if st := statsDoc(t, ts); st.Workers.Busy != 1 {
			t.Fatalf("workers.busy = %d with one worker held, want 1", st.Workers.Busy)
		}
	}
}

// TestSegmentsRideTheWorkerPool: a session segment is a unit of work on the
// node's one pool. With one worker, a job and a session never execute at the
// same time, the segment is counted where jobs are, and it is not a job.
func TestSegmentsRideTheWorkerPool(t *testing.T) {
	node := holdWorker(t)
	ts := node.ts
	resp, sess := postSession(t, ts, `{"simulate":{"kind":"single","n":8,"steps":20},"segment":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %v", resp.Status)
	}
	stillWaiting(t, ts, sess.ID)
	node.release()
	waitState(t, ts, node.jobID, StateDone)
	for getSession(t, ts, sess.ID).State != session.StateDone {
		if st := statsDoc(t, ts); st.Workers.Busy > 1 {
			t.Fatalf("workers.busy = %d on a one-worker node", st.Workers.Busy)
		}
	}
	waitSessionState(t, ts, sess.ID, session.StateDone)
	if most := node.mostRunning(); most != 1 {
		t.Fatalf("%d runs executed at once on a one-worker node", most)
	}

	st := statsDoc(t, ts)
	if want := float64(8 * 8 * 8 * (7 + 20)); st.Points.Sum != want {
		t.Errorf("points window sums to %v, want %v (the job's and the four segments' n³ × steps)", st.Points.Sum, want)
	}
	if got := st.Exec[typeSegment].Count; got != 4 {
		t.Errorf("exec[segment] saw %d segments, want 4", got)
	}
	snap := metricsJSON(t, ts)
	if got := snap.Jobs[typeSegment][outcomeDone]; got != 4 {
		t.Errorf("jobs_total{type=segment,outcome=done} = %d, want 4", got)
	}
	if got := snap.Latency[typeSegment].Count; got != 4 {
		t.Errorf("job_duration_seconds{type=segment} counted %d, want 4", got)
	}
	if jobs := node.s.store.List(); len(jobs) != 1 || jobs[0].ID() != node.jobID {
		t.Errorf("/v1/jobs lists %d jobs, want only %s: segments are not jobs", len(jobs), node.jobID)
	}
	if snap.Cache.Size != 1 {
		t.Errorf("result cache holds %d entries, want 1: segments are never cached", snap.Cache.Size)
	}
}

// TestPauseWhileSegmentWaitsForWorker: a pause reaches a segment that has
// not been given a worker yet, and the session lands paused at its last
// durable step without having run anything — then resumes normally.
func TestPauseWhileSegmentWaitsForWorker(t *testing.T) {
	node := holdWorker(t)
	ts := node.ts
	resp, sess := postSession(t, ts, `{"simulate":{"kind":"single","n":8,"steps":20},"segment":5}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %v", resp.Status)
	}
	stillWaiting(t, ts, sess.ID)
	post := func(verb string) {
		t.Helper()
		r, err := http.Post(ts.URL+"/v1/sessions/"+sess.ID+"/"+verb, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusAccepted {
			t.Fatalf("%s: %v", verb, r.Status)
		}
	}
	post("pause")
	paused := waitSessionState(t, ts, sess.ID, session.StatePaused)
	if paused.DoneSteps != 0 || paused.Segments != 0 {
		t.Fatalf("paused while waiting, yet at step %d after %d segments", paused.DoneSteps, paused.Segments)
	}
	if got := metricsJSON(t, ts).Jobs[typeSegment]; len(got) != 0 {
		t.Fatalf("a segment that never reached a worker was counted: %v", got)
	}
	node.release()
	post("resume")
	if done := waitSessionState(t, ts, sess.ID, session.StateDone); done.DoneSteps != 20 || done.Resumes != 1 {
		t.Fatalf("resumed session %+v", done)
	}
}

// TestSegmentPanicFailsSessionNotNode: a segment runs under execute's panic
// barrier like any job, so a bug in a runner costs that session, with the
// panic as its error — not the daemon and everyone else's work.
func TestSegmentPanicFailsSessionNotNode(t *testing.T) {
	spyKind(t, core.WideHaloExt, func(core.Problem) func() { panic("kernel exploded") })
	srv, hs := newTestServer(t, Config{Workers: 1, SessionDir: t.TempDir()})
	t.Cleanup(func() { srv.Shutdown() })
	resp, sess := postSession(t, hs, `{"simulate":{"kind":"wide-halo","n":8,"steps":10,"tasks":2}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %v", resp.Status)
	}
	failed := waitSessionState(t, hs, sess.ID, session.StateFailed)
	if !strings.Contains(failed.Error, "panicked") || !strings.Contains(failed.Error, "kernel exploded") {
		t.Fatalf("failed session error %q does not carry the panic", failed.Error)
	}
	if got := metricsJSON(t, hs).Jobs[typeSegment][outcomeFailed]; got != 1 {
		t.Errorf("jobs_total{type=segment,outcome=failed} = %d, want 1", got)
	}
	hr, err := http.Get(hs.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz after a segment panic: %v", hr.Status)
	}
	_, v := postJob(t, hs, predictBody)
	waitState(t, hs, v.ID, StateDone)
}
