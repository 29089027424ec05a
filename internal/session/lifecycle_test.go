package session_test

// The session lifecycle — create, segments, pause, resume, fork, recovery —
// is run by the node (internal/service), so these tests drive a real
// service.Server over a session directory through its HTTP API. They live
// here, as an external test package, so they keep the names the suite has
// always reported them under.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/session"
)

// node is one in-process advectd with sessions over dir.
type node struct {
	srv  *service.Server
	ts   *httptest.Server
	dir  string
	once sync.Once
}

func startNode(t *testing.T, dir string, logger *slog.Logger) *node {
	t.Helper()
	srv := service.New(service.Config{Workers: 2, SessionDir: dir, Logger: logger})
	n := &node{srv: srv, ts: httptest.NewServer(srv.Handler()), dir: dir}
	t.Cleanup(n.stop)
	return n
}

// stop shuts the node down, crash-shaped for its sessions: a running one
// keeps its "running" record for the next node over the directory.
func (n *node) stop() {
	n.once.Do(func() {
		n.srv.Shutdown()
		n.ts.Close()
	})
}

// call sends one request and returns the status and the body.
func (n *node) call(t *testing.T, method, path, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, n.ts.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

// viewOf is call for the routes that answer a session view on want.
func (n *node) viewOf(t *testing.T, want int, method, path, body string) session.View {
	t.Helper()
	code, data := n.call(t, method, path, body)
	var v session.View
	if code != want {
		t.Fatalf("%s %s: status %d (%s), want %d", method, path, code, data, want)
	}
	if err := json.Unmarshal(data, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

func (n *node) create(t *testing.T, body string) session.View {
	t.Helper()
	return n.viewOf(t, http.StatusAccepted, http.MethodPost, "/v1/sessions", body)
}

func (n *node) view(t *testing.T, id string) session.View {
	t.Helper()
	return n.viewOf(t, http.StatusOK, http.MethodGet, "/v1/sessions/"+id, "")
}

// verb posts pause, resume or fork to a session and returns the status.
func (n *node) verb(t *testing.T, id, verb, body string) (int, []byte) {
	t.Helper()
	return n.call(t, http.MethodPost, "/v1/sessions/"+id+"/"+verb, body)
}

func (n *node) waitState(t *testing.T, id string, want session.State) session.View {
	t.Helper()
	var v session.View
	waitFor(t, string(want), func() bool {
		v = n.view(t, id)
		return v.State == want
	})
	return v
}

func (n *node) stats(t *testing.T) service.SessionStats {
	t.Helper()
	code, data := n.call(t, http.MethodGet, "/v1/stats", "")
	var st service.TelemetryStats
	if err := json.Unmarshal(data, &st); err != nil || code != http.StatusOK || st.Sessions == nil {
		t.Fatalf("stats: %d %v %s", code, err, data)
	}
	return *st.Sessions
}

// follow subscribes to the node's live stream and returns a reader of what
// it has delivered so far: the type of every "session" event, in order.
func (n *node) follow(t *testing.T) func() []string {
	t.Helper()
	resp, err := http.Get(n.ts.URL + "/v1/stream")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var types []string
	done := make(chan struct{})
	go func() {
		defer close(done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			if name, ok := strings.CutPrefix(line, "event: "); ok {
				event = name
			} else if data, ok := strings.CutPrefix(line, "data: "); ok && event == "session" {
				var ev struct {
					Type string `json:"type"`
				}
				if json.Unmarshal([]byte(data), &ev) == nil {
					mu.Lock()
					types = append(types, ev.Type)
					mu.Unlock()
				}
			}
		}
	}()
	t.Cleanup(func() {
		resp.Body.Close()
		<-done
	})
	return func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), types...)
	}
}

// scenario is the body of a create for a single-task session of steps
// steps on 8³ in segments of segment.
func scenario(steps, segment int) string {
	return fmt.Sprintf(`{"simulate":{"kind":"single","n":8,"steps":%d},"segment":%d}`, steps, segment)
}

// runVia replaces kind's runner for the rest of the test with one that
// runs through run, handed the real runner — how a test holds or breaks a
// segment on a node it does not otherwise touch.
func runVia(t *testing.T, kind core.Kind, run func(real core.Runner, p core.Problem, o core.Options) (*core.Result, error)) {
	t.Helper()
	real, err := core.New(kind)
	if err != nil {
		t.Fatal(err)
	}
	core.Register(kind, func() core.Runner { return runner{real, run} })
	t.Cleanup(func() { core.Register(kind, func() core.Runner { return real }) })
}

type runner struct {
	core.Runner
	run func(real core.Runner, p core.Problem, o core.Options) (*core.Result, error)
}

func (r runner) Run(p core.Problem, o core.Options) (*core.Result, error) {
	return r.run(r.Runner, p, o)
}

// gateKind makes each run of kind wait for a token on the returned gate (or
// for its context to end), so mid-run pauses and shutdowns are
// deterministic.
func gateKind(t *testing.T, kind core.Kind) chan struct{} {
	gate := make(chan struct{}, 16)
	runVia(t, kind, func(real core.Runner, p core.Problem, o core.Options) (*core.Result, error) {
		select {
		case <-gate:
		case <-o.Ctx.Done():
			return nil, o.Ctx.Err()
		}
		return real.Run(p, o)
	})
	return gate
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// ckptPath names a session checkpoint file the way the store does.
func ckptPath(dir, fp string, step int64) string {
	return filepath.Join(dir, fmt.Sprintf("ck-%s-%09d.ckpt", fp, step))
}

func TestManagerRunsToCompletion(t *testing.T) {
	n := startNode(t, t.TempDir(), nil)
	events := n.follow(t)
	s := n.create(t, scenario(20, 6))
	v := n.waitState(t, s.ID, session.StateDone)
	// The state lands before its record is persisted and its event sent.
	waitFor(t, "the done event", func() bool {
		ev := events()
		return len(ev) > 0 && ev[len(ev)-1] == "session-done"
	})
	if v.DoneSteps != 20 || v.TotalSteps != 20 || v.Segments != 4 || v.LastCheckpoint != 20 {
		t.Fatalf("final view wrong: %+v", v)
	}
	if v.FieldHash == "" {
		t.Fatal("no field hash recorded")
	}
	// Retention: the default keeps 4 checkpoints; 4 segments landed 4.
	st, err := session.Open(n.dir)
	if err != nil {
		t.Fatal(err)
	}
	if steps := st.Steps(v.Fingerprint); len(steps) != 4 || steps[3] != 20 {
		t.Fatalf("retained steps %v", steps)
	}
	ev := events()
	segs, dones := 0, 0
	for _, e := range ev {
		switch e {
		case "session-segment":
			segs++
		case "session-done":
			dones++
		}
	}
	if ev[0] != "session-created" || segs != 4 || dones != 1 {
		t.Fatalf("event stream wrong: %v", ev)
	}
	if st := n.stats(t); st.Done != 1 || st.Created != 1 || st.Segments != 4 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestManagerPauseResume(t *testing.T) {
	n := startNode(t, t.TempDir(), nil)
	gate := gateKind(t, core.SingleTask)
	s := n.create(t, scenario(20, 5))
	gate <- struct{}{} // first segment
	waitFor(t, "first segment", func() bool { return n.view(t, s.ID).DoneSteps == 5 })
	// The loop is now blocked in the gated second segment (or about to
	// be); pause cancels it and rolls back to the durable step 5.
	if code, body := n.verb(t, s.ID, "pause", ""); code != http.StatusAccepted {
		t.Fatalf("pause: %d %s", code, body)
	}
	if got := n.waitState(t, s.ID, session.StatePaused).DoneSteps; got != 5 {
		t.Fatalf("paused at %d steps, want the durable 5", got)
	}
	if code, _ := n.verb(t, s.ID, "pause", ""); code != http.StatusConflict {
		t.Fatal("pausing a paused session must fail")
	}
	for i := 0; i < 8; i++ {
		gate <- struct{}{}
	}
	if code, body := n.verb(t, s.ID, "resume", ""); code != http.StatusAccepted {
		t.Fatalf("resume: %d %s", code, body)
	}
	v := n.waitState(t, s.ID, session.StateDone)
	if v.DoneSteps != 20 || v.Resumes != 1 {
		t.Fatalf("resumed view wrong: %+v", v)
	}
	if code, _ := n.verb(t, s.ID, "resume", ""); code != http.StatusConflict {
		t.Fatal("resuming a done session must fail")
	}
}

// fork posts a fork of parent and returns the child's view.
func (n *node) fork(t *testing.T, parent, body string) session.View {
	t.Helper()
	return n.viewOf(t, http.StatusAccepted, http.MethodPost, "/v1/sessions/"+parent+"/fork", body)
}

func TestManagerFork(t *testing.T) {
	n := startNode(t, t.TempDir(), nil)
	parent := n.waitState(t, n.create(t, scenario(20, 5)).ID, session.StateDone)
	child := n.fork(t, parent.ID, `{"at_step":10,"total_steps":30,"threads":2}`)
	if child.Fingerprint == parent.Fingerprint {
		t.Fatal("fork shares the parent fingerprint")
	}
	v := n.waitState(t, child.ID, session.StateDone)
	if v.DoneSteps != 30 || v.ParentFP != parent.Fingerprint || v.ParentStep != 10 {
		t.Fatalf("fork view wrong: %+v", v)
	}
	// Fork at the latest checkpoint (the final step), extending the run.
	child2 := n.fork(t, parent.ID, `{"total_steps":40}`)
	if child2.ParentStep != 20 {
		t.Fatalf("latest fork point %d, want 20", child2.ParentStep)
	}
	// A fork whose total does not extend past its fork point is rejected
	// (parent total 20 == fork point 20).
	n.waitState(t, child2.ID, session.StateDone)
	if code, _ := n.verb(t, parent.ID, "fork", `{"total_steps":20}`); code != http.StatusConflict {
		t.Fatal("non-extending fork accepted")
	}
	if st := n.stats(t); st.Forks != 2 {
		t.Fatalf("fork counter %d", st.Forks)
	}
}

// TestManagerRecovery is the durability core: a node stopped mid-run
// leaves its record and checkpoints on disk; a new node over the same
// store resumes from the last durable segment and the final state is
// bitwise-identical to an uninterrupted run.
func TestManagerRecovery(t *testing.T) {
	// Reference: the same scenario, uninterrupted.
	ref := startNode(t, t.TempDir(), nil)
	wantHash := ref.waitState(t, ref.create(t, scenario(20, 5)).ID, session.StateDone).FieldHash
	if wantHash == "" {
		t.Fatal("reference run has no field hash")
	}

	dir := t.TempDir()
	n1 := startNode(t, dir, nil)
	gate := gateKind(t, core.SingleTask)
	s1 := n1.create(t, scenario(20, 5))
	gate <- struct{}{}
	gate <- struct{}{}
	waitFor(t, "two segments", func() bool { return n1.view(t, s1.ID).DoneSteps == 10 })
	// Kill the process mid-third-segment: the stop cancels the run loop
	// while the runner waits on the gate; the record stays "running".
	n1.stop()
	for i := 0; i < 2; i++ {
		gate <- struct{}{}
	}

	n2 := startNode(t, dir, nil)
	if st := n2.stats(t); st.Recovered != 1 {
		t.Fatalf("recovered %d sessions, want 1", st.Recovered)
	}
	if code, _ := n2.call(t, http.MethodGet, "/v1/sessions/"+s1.ID, ""); code != http.StatusOK {
		t.Fatalf("recovered node lost session %s", s1.ID)
	}
	v := n2.waitState(t, s1.ID, session.StateDone)
	if v.DoneSteps != 20 {
		t.Fatalf("recovered session finished at %d steps", v.DoneSteps)
	}
	if v.Resumes == 0 {
		t.Fatal("recovery must count as a resume")
	}
	if v.FieldHash != wantHash {
		t.Fatalf("recovered final state %s differs from uninterrupted %s", v.FieldHash, wantHash)
	}
	if st := n2.stats(t); st.Recovered != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// Fresh ids mint beyond the recovered ones.
	for i := 0; i < 2; i++ {
		gate <- struct{}{}
	}
	s3 := n2.create(t, scenario(5, 5))
	if s3.ID == s1.ID {
		t.Fatalf("recovered node reused id %s", s3.ID)
	}
	n2.waitState(t, s3.ID, session.StateDone)
}

// TestManagerRecoveryRollsBack covers the torn-write case: the record
// claims more steps than any durable checkpoint holds; recovery resumes
// from what is actually retained.
func TestManagerRecoveryRollsBack(t *testing.T) {
	dir := t.TempDir()
	n1 := startNode(t, dir, nil)
	wantHash := n1.waitState(t, n1.create(t, scenario(20, 5)).ID, session.StateDone).FieldHash
	n1.stop()

	// Forge a crash: mark the record running at a step past the newest
	// checkpoint, and drop the newest checkpoint too.
	st, err := session.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := st.Records()
	if err != nil || len(recs) != 1 {
		t.Fatalf("records: %v %v", recs, err)
	}
	rec := recs[0]
	rec.State = session.StateRunning
	rec.DoneSteps = 17
	if err := st.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(ckptPath(dir, rec.Fingerprint, 20)); err != nil {
		t.Fatal(err)
	}

	n2 := startNode(t, dir, nil)
	if code, _ := n2.call(t, http.MethodGet, "/v1/sessions/"+rec.ID, ""); code != http.StatusOK {
		t.Fatal("session not recovered")
	}
	if v := n2.waitState(t, rec.ID, session.StateDone); v.DoneSteps != 20 || v.FieldHash != wantHash {
		t.Fatalf("rollback recovery wrong: %+v (want hash %s)", v, wantHash)
	}
}

func TestManagerRejectsBadScenarios(t *testing.T) {
	n := startNode(t, t.TempDir(), nil)
	if code, _ := n.call(t, http.MethodPost, "/v1/sessions", scenario(0, 0)); code != http.StatusBadRequest {
		t.Fatal("zero-step scenario accepted")
	}
	// A request cannot carry an initial state; the one normalisation every
	// way into a session goes through refuses it all the same.
	sc := session.Scenario{Kind: core.SingleTask, Problem: core.DefaultProblem(8, 10), Segment: 5}
	sc.Problem.Initial = grid.NewField(sc.Problem.N, 1)
	if _, err := sc.Normalize(); err == nil {
		t.Fatal("scenario with initial state accepted")
	}
	if code, _ := n.verb(t, "nope", "pause", ""); code != http.StatusNotFound {
		t.Fatal("pausing unknown session succeeded")
	}
	if code, _ := n.verb(t, "nope", "resume", ""); code != http.StatusNotFound {
		t.Fatal("resuming unknown session succeeded")
	}
	if code, _ := n.verb(t, "nope", "fork", "{}"); code != http.StatusNotFound {
		t.Fatal("forking unknown session succeeded")
	}
}

func TestManagerFailedSegment(t *testing.T) {
	boom := errors.New("kernel exploded")
	runVia(t, core.SingleTask, func(core.Runner, core.Problem, core.Options) (*core.Result, error) {
		return nil, boom
	})
	n := startNode(t, t.TempDir(), nil)
	s := n.create(t, scenario(10, 5))
	if v := n.waitState(t, s.ID, session.StateFailed); v.Error == "" || v.DoneSteps != 0 {
		t.Fatalf("failed view wrong: %+v", v)
	}
	if st := n.stats(t); st.Failed != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestManagerSeeded(t *testing.T) {
	// Cut a checkpoint on one node, then seed a fresh node with its bytes —
	// the gateway failover path.
	dir := t.TempDir()
	n1 := startNode(t, dir, nil)
	s1 := n1.waitState(t, n1.create(t, scenario(20, 5)).ID, session.StateDone)
	st, err := session.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data, err := st.CheckpointBytes(s1.Fingerprint, 10)
	if err != nil {
		t.Fatal(err)
	}
	seeded := func(ckpt []byte) string {
		body, _ := json.Marshal(service.SessionRequest{
			Simulate: &service.SimulateRequest{Kind: "single", N: 8, Steps: 20}, Segment: 5, Checkpoint: ckpt,
		})
		return string(body)
	}

	n2 := startNode(t, t.TempDir(), nil)
	s2 := n2.create(t, seeded(data))
	if s2.Fingerprint != s1.Fingerprint {
		t.Fatalf("seeded fingerprint %s, want %s", s2.Fingerprint, s1.Fingerprint)
	}
	if v := n2.waitState(t, s2.ID, session.StateDone); v.DoneSteps != 20 || v.FieldHash != s1.FieldHash {
		t.Fatalf("seeded completion wrong: %+v (want hash %s)", v, s1.FieldHash)
	}
	// Seeding past the scenario's total is rejected.
	final, err := st.CheckpointBytes(s1.Fingerprint, 20)
	if err != nil {
		t.Fatal(err)
	}
	if code, _ := n2.call(t, http.MethodPost, "/v1/sessions", seeded(final)); code != http.StatusBadRequest {
		t.Fatal("seed at the final step accepted")
	}
}

// syncBuffer is a log destination safe to read while the node writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRecoverNamesSkippedRecords: a record the store cannot decode — a torn
// write, or a record in the format older binaries wrote, with problem and
// options as canonical strings — must not vanish silently. Recovery brings
// back the good session, names each skipped file with its error in the
// log, and neither it nor a later create touches those files.
func TestRecoverNamesSkippedRecords(t *testing.T) {
	dir := t.TempDir()
	n1 := startNode(t, dir, nil)
	good := n1.waitState(t, n1.create(t, scenario(10, 5)).ID, session.StateDone)
	n1.stop()
	bad := map[string]string{
		"sess-sess-000007.json": `{"id":"sess-000007","state":"runn`,
		"sess-sess-000008.json": `{"id":"sess-000008","state":"running","kind":"single",
			"problem":"p1;n=8,8,8;c=1,0.5,0.25;nu=0;steps=10;wave=0,0,0,0;t0=0;init=-",
			"options":"o1;tasks=1;threads=1;block=32,8;box=1;halo=2;tpg=0;gpu=c2050;verify=0;trace=0",
			"segment":5,"retain":4,"done_steps":0,"fingerprint":"fp"}`,
	}
	for name, body := range bad {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	var logged syncBuffer
	n2 := startNode(t, dir, slog.New(slog.NewTextHandler(&logged, nil)))
	code, data := n2.call(t, http.MethodGet, "/v1/sessions", "")
	var list struct {
		Sessions []session.View `json:"sessions"`
	}
	if err := json.Unmarshal(data, &list); err != nil || code != http.StatusOK {
		t.Fatalf("list: %d %v", code, err)
	}
	if views := list.Sessions; len(views) != 1 || views[0].ID != good.ID || views[0].State != session.StateDone {
		t.Fatalf("recovered %+v, want only %s, done", views, good.ID)
	}
	recoveryLog := logged.String() // read before the next session's run loop logs
	// A skipped record still owns its id: the next session is minted past
	// it and so cannot land on its file.
	next := n2.create(t, scenario(5, 5))
	n2.waitState(t, next.ID, session.StateDone)
	if next.ID != "sess-000009" {
		t.Errorf("next session is %s, want sess-000009 (past both skipped records)", next.ID)
	}
	for name, body := range bad {
		want := `msg="session record skipped" file=` + name + " error="
		if !strings.Contains(recoveryLog, want) {
			t.Errorf("log does not name %s:\n%s", name, recoveryLog)
		}
		if data, err := os.ReadFile(filepath.Join(dir, name)); err != nil || string(data) != body {
			t.Errorf("%s was touched: %q, %v", name, data, err)
		}
	}
}

// TestResumeRollsBackOnFailedPersist: a resume whose record write fails
// started no run loop, so the session must read paused again — not running
// forever — and resume for real once the store is writable.
func TestResumeRollsBackOnFailedPersist(t *testing.T) {
	dir := t.TempDir()
	n := startNode(t, dir, nil)
	gate := gateKind(t, core.SingleTask)
	s := n.create(t, scenario(10, 5))
	gate <- struct{}{}
	waitFor(t, "first segment", func() bool { return n.view(t, s.ID).DoneSteps == 5 })
	if code, body := n.verb(t, s.ID, "pause", ""); code != http.StatusAccepted {
		t.Fatalf("pause: %d %s", code, body)
	}
	n.waitState(t, s.ID, session.StatePaused)
	// The state lands before its record is written.
	recPath := filepath.Join(dir, "sess-"+s.ID+".json")
	waitFor(t, "the paused record", func() bool {
		data, _ := os.ReadFile(recPath)
		return bytes.Contains(data, []byte(`"state": "paused"`))
	})

	// Make the record unwritable: the rename target becomes a directory.
	saved, err := os.ReadFile(recPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(recPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(recPath, 0o755); err != nil {
		t.Fatal(err)
	}
	if code, _ := n.verb(t, s.ID, "resume", ""); code == http.StatusAccepted {
		t.Fatal("resume with an unwritable record succeeded")
	}
	if v, st := n.view(t, s.ID), n.stats(t); v.State != session.StatePaused || v.Resumes != 0 || st.Resumes != 0 {
		t.Fatalf("after the failed resume: %+v, stats %+v; want paused, no resume counted", v, st)
	}
	if code, _ := n.verb(t, s.ID, "pause", ""); code == http.StatusAccepted {
		t.Fatal("pause of a session that is not running succeeded")
	}

	// Repair the store; the second resume runs to the end.
	if err := os.Remove(recPath); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(recPath, saved, 0o644); err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	if code, body := n.verb(t, s.ID, "resume", ""); code != http.StatusAccepted {
		t.Fatalf("resume: %d %s", code, body)
	}
	if v := n.waitState(t, s.ID, session.StateDone); v.DoneSteps != 10 || v.Resumes != 1 {
		t.Fatalf("resumed view wrong: %+v", v)
	}
}

// TestRecordRoundTrip pins that a session's status is written down once:
// a root and a forked session that finished, and one paused mid-run — with
// a ν that has no short decimal form — come back from a reopened store
// with the whole view they had, Updated, LastCheckpoint and FieldHash
// included. A record written by the parent build, before a record carried
// total_steps, last_checkpoint, field_hash or last_gf, still recovers:
// done, it is queryable as it was; running, it resumes and finishes on the
// state that build computed.
func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	n1 := startNode(t, dir, nil)
	root := n1.waitState(t, n1.create(t,
		`{"simulate":{"kind":"single","n":8,"steps":10,"nu":0.3333333333333333},"segment":5}`).ID, session.StateDone)
	fork := n1.waitState(t, n1.fork(t, root.ID, `{"at_step":5,"total_steps":15,"threads":2}`).ID, session.StateDone)
	gate := gateKind(t, core.BulkSync)
	held := n1.create(t, `{"simulate":{"kind":"bulk","n":8,"steps":10},"segment":5}`)
	gate <- struct{}{}
	waitFor(t, "the held session's first segment", func() bool { return n1.view(t, held.ID).DoneSteps == 5 })
	if code, body := n1.verb(t, held.ID, "pause", ""); code != http.StatusAccepted {
		t.Fatalf("pause: %d %s", code, body)
	}
	paused := n1.waitState(t, held.ID, session.StatePaused)
	n1.stop()

	n2 := startNode(t, dir, nil)
	for _, want := range []session.View{root, fork, paused} {
		if got := n2.view(t, want.ID); got != want {
			t.Errorf("%s: recovered view\n%+v\nwant\n%+v", want.ID, got, want)
		}
	}

	// The parent build's record of a done 8³ × 10 session at ν = 1/3, and
	// the same record interrupted, in a store of their own: the interrupted
	// one brought no checkpoint, so it runs again from step zero and must
	// reach the state the parent build computed.
	fixture, err := os.ReadFile(filepath.Join("testdata", "parent-format-record.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"total_steps", "last_checkpoint", "field_hash", "last_gf"} {
		if bytes.Contains(fixture, []byte(`"`+key+`"`)) {
			t.Fatalf("fixture carries %s; it must be in the parent's format", key)
		}
	}
	const parentHash = "c034c01b72146356376306b76c549211169d0c880898e301384c73123aac34c7"
	interrupted := bytes.Replace(bytes.Replace(fixture, []byte(`"sess-000001"`), []byte(`"sess-000002"`), 1),
		[]byte(`"state": "done"`), []byte(`"state": "running"`), 1)
	old := t.TempDir()
	for name, data := range map[string][]byte{"sess-sess-000001.json": fixture, "sess-sess-000002.json": interrupted} {
		if err := os.WriteFile(filepath.Join(old, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	n3 := startNode(t, old, nil)
	if v := n3.view(t, "sess-000001"); v.State != session.StateDone || v.DoneSteps != 10 || v.TotalSteps != 10 ||
		v.Segments != 2 || v.LastCheckpoint != 0 || v.FieldHash != "" || v.Resumes != 0 {
		t.Errorf("parent-format done record recovered as %+v", v)
	}
	if v := n3.waitState(t, "sess-000002", session.StateDone); v.DoneSteps != 10 || v.Resumes != 1 || v.FieldHash != parentHash {
		t.Errorf("parent-format running record finished as %+v, want the parent's field hash %s", v, parentHash)
	}
}
