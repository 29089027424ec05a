package session

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/grid"
	_ "repro/internal/impl"
)

// realRunner executes segments through the implementation registry, the
// way the serving layer wires the manager.
func realRunner() Runner {
	return func(ctx context.Context, kind core.Kind, p core.Problem, o core.Options) (*core.Result, error) {
		r, err := core.New(kind)
		if err != nil {
			return nil, err
		}
		o.Ctx = ctx
		return r.Run(p, o)
	}
}

// gatedRunner wraps a runner so each segment must be released through the
// gate (or cancelled), making mid-run pauses and shutdowns deterministic.
func gatedRunner(inner Runner, gate chan struct{}) Runner {
	return func(ctx context.Context, kind core.Kind, p core.Problem, o core.Options) (*core.Result, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		return inner(ctx, kind, p, o)
	}
}

func testScenario(steps, segment int) Scenario {
	return Scenario{
		Kind:    core.SingleTask,
		Problem: core.DefaultProblem(8, steps),
		Segment: segment,
	}
}

func newTestManager(t *testing.T, dir string, run Runner, notify func(Event)) *Manager {
	t.Helper()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(Config{Store: st, Run: run, Notify: notify})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
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

func waitState(t *testing.T, s *Session, want State) {
	t.Helper()
	waitFor(t, string(want), func() bool { return s.State() == want })
}

func TestScenarioFingerprint(t *testing.T) {
	sc := testScenario(20, 5)
	if got, want := sc.Fingerprint(), core.Fingerprint(sc.Kind, sc.Problem, sc.Options); got != want {
		t.Fatalf("root fingerprint %s, want canonical %s", got, want)
	}
	fork := sc
	fork.ParentFP = sc.Fingerprint()
	fork.ParentStep = 10
	if fork.Fingerprint() == sc.Fingerprint() {
		t.Fatal("fork fingerprint must differ from root")
	}
	fork2 := fork
	fork2.ParentStep = 15
	if fork2.Fingerprint() == fork.Fingerprint() {
		t.Fatal("fork point must be part of the identity")
	}
}

func TestManagerRunsToCompletion(t *testing.T) {
	var mu sync.Mutex
	var events []string
	m := newTestManager(t, t.TempDir(), realRunner(), func(e Event) {
		mu.Lock()
		events = append(events, e.Type)
		mu.Unlock()
	})
	s, err := m.Create(testScenario(20, 6))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateDone)
	// The state lands before its record is persisted and its event sent.
	waitFor(t, "the done event", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(events) > 0 && events[len(events)-1] == EventDone
	})
	v := s.View()
	if v.DoneSteps != 20 || v.TotalSteps != 20 || v.Segments != 4 || v.LastCheckpoint != 20 {
		t.Fatalf("final view wrong: %+v", v)
	}
	if v.FieldHash == "" {
		t.Fatal("no field hash recorded")
	}
	// Retention: the default keeps 4 checkpoints; 4 segments landed 4.
	if steps := m.cfg.Store.Steps(s.Fingerprint()); len(steps) != 4 || steps[3] != 20 {
		t.Fatalf("retained steps %v", steps)
	}
	mu.Lock()
	defer mu.Unlock()
	segs, dones := 0, 0
	for _, e := range events {
		switch e {
		case EventSegment:
			segs++
		case EventDone:
			dones++
		}
	}
	if events[0] != EventCreated || segs != 4 || dones != 1 {
		t.Fatalf("event stream wrong: %v", events)
	}
	st := m.Stats()
	if st.Done != 1 || st.Created != 1 || st.Segments != 4 {
		t.Fatalf("stats wrong: %+v", st)
	}
}

func TestManagerPauseResume(t *testing.T) {
	gate := make(chan struct{}, 16)
	m := newTestManager(t, t.TempDir(), gatedRunner(realRunner(), gate), nil)
	s, err := m.Create(testScenario(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{} // first segment
	waitFor(t, "first segment", func() bool { return s.Done() == 5 })
	// The loop is now blocked in the gated second segment (or about to
	// be); pause cancels it and rolls back to the durable step 5.
	if err := m.Pause(s.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StatePaused)
	if got := s.Done(); got != 5 {
		t.Fatalf("paused at %d steps, want the durable 5", got)
	}
	if err := m.Pause(s.ID()); err == nil {
		t.Fatal("pausing a paused session must fail")
	}
	for i := 0; i < 8; i++ {
		gate <- struct{}{}
	}
	if err := m.Resume(s.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateDone)
	v := s.View()
	if v.DoneSteps != 20 || v.Resumes != 1 {
		t.Fatalf("resumed view wrong: %+v", v)
	}
	if err := m.Resume(s.ID()); err == nil {
		t.Fatal("resuming a done session must fail")
	}
}

func TestManagerFork(t *testing.T) {
	m := newTestManager(t, t.TempDir(), realRunner(), nil)
	parent, err := m.Create(testScenario(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, parent, StateDone)
	opts := parent.Scenario().Options
	opts.Threads = 2
	child, err := m.Fork(parent.ID(), 10, opts, 30)
	if err != nil {
		t.Fatal(err)
	}
	if child.Fingerprint() == parent.Fingerprint() {
		t.Fatal("fork shares the parent fingerprint")
	}
	waitState(t, child, StateDone)
	v := child.View()
	if v.DoneSteps != 30 || v.ParentFP != parent.Fingerprint() || v.ParentStep != 10 {
		t.Fatalf("fork view wrong: %+v", v)
	}
	// Fork at the latest checkpoint (the final step), extending the run.
	child2, err := m.Fork(parent.ID(), -1, parent.Scenario().Options, 40)
	if err != nil {
		t.Fatal(err)
	}
	if child2.View().ParentStep != 20 {
		t.Fatalf("latest fork point %d, want 20", child2.View().ParentStep)
	}
	// A fork whose total does not extend past its fork point is rejected
	// (parent total 20 == fork point 20).
	waitState(t, child2, StateDone)
	if _, err := m.Fork(parent.ID(), -1, parent.Scenario().Options, 20); err == nil {
		t.Fatal("non-extending fork accepted")
	}
	if m.Stats().Forks != 2 {
		t.Fatalf("fork counter %d", m.Stats().Forks)
	}
}

// TestManagerRecovery is the durability core: a manager killed mid-run
// leaves its record and checkpoints on disk; a new manager over the same
// store resumes from the last durable segment and the final state is
// bitwise-identical to an uninterrupted run.
func TestManagerRecovery(t *testing.T) {
	// Reference: the same scenario, uninterrupted.
	ref := newTestManager(t, t.TempDir(), realRunner(), nil)
	rs, err := ref.Create(testScenario(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, rs, StateDone)
	wantHash := rs.View().FieldHash
	if wantHash == "" {
		t.Fatal("reference run has no field hash")
	}

	dir := t.TempDir()
	gate := make(chan struct{}, 16)
	m1 := newTestManager(t, dir, gatedRunner(realRunner(), gate), nil)
	s1, err := m1.Create(testScenario(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	gate <- struct{}{}
	waitFor(t, "two segments", func() bool { return s1.Done() == 10 })
	// Kill the process mid-third-segment: Close cancels the root context
	// while the runner waits on the gate; the record stays "running".
	m1.Close()

	m2 := newTestManager(t, dir, realRunner(), nil)
	resumed, err := m2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if resumed != 1 {
		t.Fatalf("recovered %d sessions, want 1", resumed)
	}
	s2, ok := m2.Get(s1.ID())
	if !ok {
		t.Fatalf("recovered manager lost session %s", s1.ID())
	}
	waitState(t, s2, StateDone)
	v := s2.View()
	if v.DoneSteps != 20 {
		t.Fatalf("recovered session finished at %d steps", v.DoneSteps)
	}
	if v.Resumes == 0 {
		t.Fatal("recovery must count as a resume")
	}
	if v.FieldHash != wantHash {
		t.Fatalf("recovered final state %s differs from uninterrupted %s", v.FieldHash, wantHash)
	}
	if m2.Stats().Recovered != 1 {
		t.Fatalf("stats: %+v", m2.Stats())
	}
	// Fresh ids mint beyond the recovered ones.
	s3, err := m2.Create(testScenario(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	if s3.ID() == s1.ID() {
		t.Fatalf("recovered manager reused id %s", s3.ID())
	}
	waitState(t, s3, StateDone)
}

// TestManagerRecoveryRollsBack covers the torn-write case: the record
// claims more steps than any durable checkpoint holds; recovery resumes
// from what is actually retained.
func TestManagerRecoveryRollsBack(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, dir, realRunner(), nil)
	s1, err := m1.Create(testScenario(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, StateDone)
	wantHash := s1.View().FieldHash
	m1.Close()

	// Forge a crash: mark the record running at a step past the newest
	// checkpoint, and drop the newest checkpoint too.
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	recs, _, err := st.Records()
	if err != nil || len(recs) != 1 {
		t.Fatalf("records: %v %v", recs, err)
	}
	rec := recs[0]
	rec.State = StateRunning
	rec.DoneSteps = 17
	if err := st.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, ckptFile(rec.Fingerprint, 20))); err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, dir, realRunner(), nil)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	s2, ok := m2.Get(rec.ID)
	if !ok {
		t.Fatal("session not recovered")
	}
	waitState(t, s2, StateDone)
	if v := s2.View(); v.DoneSteps != 20 || v.FieldHash != wantHash {
		t.Fatalf("rollback recovery wrong: %+v (want hash %s)", v, wantHash)
	}
}

func TestManagerRejectsBadScenarios(t *testing.T) {
	m := newTestManager(t, t.TempDir(), realRunner(), nil)
	sc := testScenario(0, 5)
	if _, err := m.Create(sc); err == nil {
		t.Fatal("zero-step scenario accepted")
	}
	sc = testScenario(10, 5)
	sc.Problem.Initial = grid.NewField(sc.Problem.N, 1)
	if _, err := m.Create(sc); err == nil {
		t.Fatal("scenario with initial state accepted")
	}
	if err := m.Pause("nope"); err == nil {
		t.Fatal("pausing unknown session succeeded")
	}
	if err := m.Resume("nope"); err == nil {
		t.Fatal("resuming unknown session succeeded")
	}
	if _, err := m.Fork("nope", -1, core.Options{}, 0); err == nil {
		t.Fatal("forking unknown session succeeded")
	}
}

func TestManagerFailedSegment(t *testing.T) {
	boom := errors.New("kernel exploded")
	run := func(ctx context.Context, kind core.Kind, p core.Problem, o core.Options) (*core.Result, error) {
		return nil, boom
	}
	m := newTestManager(t, t.TempDir(), run, nil)
	s, err := m.Create(testScenario(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateFailed)
	if v := s.View(); v.Error == "" || v.DoneSteps != 0 {
		t.Fatalf("failed view wrong: %+v", v)
	}
	if m.Stats().Failed != 1 {
		t.Fatalf("stats: %+v", m.Stats())
	}
}

func TestManagerSeeded(t *testing.T) {
	// Cut a checkpoint by hand, then seed a fresh manager with its bytes —
	// the gateway failover path.
	dir := t.TempDir()
	m1 := newTestManager(t, dir, realRunner(), nil)
	s1, err := m1.Create(testScenario(20, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, s1, StateDone)
	wantHash := s1.View().FieldHash
	st, _ := Open(dir)
	data, err := st.CheckpointBytes(s1.Fingerprint(), 10)
	if err != nil {
		t.Fatal(err)
	}

	m2 := newTestManager(t, t.TempDir(), realRunner(), nil)
	s2, err := m2.CreateSeeded(s1.Scenario(), data)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Fingerprint() != s1.Fingerprint() {
		t.Fatalf("seeded fingerprint %s, want %s", s2.Fingerprint(), s1.Fingerprint())
	}
	waitState(t, s2, StateDone)
	if v := s2.View(); v.DoneSteps != 20 || v.FieldHash != wantHash {
		t.Fatalf("seeded completion wrong: %+v (want hash %s)", v, wantHash)
	}
	// Seeding past the scenario's total is rejected.
	final, err := st.CheckpointBytes(s1.Fingerprint(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m2.CreateSeeded(s1.Scenario(), final); err == nil {
		t.Fatal("seed at the final step accepted")
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "nested", "dir"))
	if err != nil {
		t.Fatal(err)
	}
	n := grid.Uniform(4)
	f := grid.NewField(n, 1)
	f.Fill(func(i, j, k int) float64 { return float64(i*100 + j*10 + k) })
	meta := checkpoint.Meta{N: n, Nu: 1, T0: 2, StepsDone: 10, Fingerprint: "fp1", Options: "o1;x=1"}
	if err := st.SaveCheckpoint(meta, f); err != nil {
		t.Fatal(err)
	}
	for _, step := range []int64{20, 30, 40} {
		meta.StepsDone = step
		if err := st.SaveCheckpoint(meta, f); err != nil {
			t.Fatal(err)
		}
	}
	if steps := st.Steps("fp1"); len(steps) != 4 || steps[0] != 10 || steps[3] != 40 {
		t.Fatalf("steps %v", steps)
	}
	if latest, ok := st.Latest("fp1"); !ok || latest != 40 {
		t.Fatalf("latest %d %v", latest, ok)
	}
	m2, f2, err := st.LoadCheckpoint("fp1", 20)
	if err != nil {
		t.Fatal(err)
	}
	if m2.StepsDone != 20 || m2.Fingerprint != "fp1" {
		t.Fatalf("loaded meta %+v", m2)
	}
	if nm := grid.DiffNorms(f, f2); nm.LInf != 0 {
		t.Fatalf("field differs: %+v", nm)
	}
	if removed := st.Prune("fp1", 2); removed != 2 {
		t.Fatalf("pruned %d, want 2", removed)
	}
	if steps := st.Steps("fp1"); len(steps) != 2 || steps[0] != 30 {
		t.Fatalf("after prune: %v", steps)
	}
	// Checkpoints without a fingerprint are refused.
	if err := st.SaveCheckpoint(checkpoint.Meta{N: n}, f); err == nil {
		t.Fatal("fingerprint-less checkpoint accepted")
	}
	// Unknown fingerprints read as absent, not as errors.
	if steps := st.Steps("missing"); len(steps) != 0 {
		t.Fatalf("phantom steps %v", steps)
	}
	if _, ok := st.Latest("missing"); ok {
		t.Fatal("phantom latest")
	}
}

func TestStoreRecords(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now().UTC().Truncate(time.Second)
	rec := Record{ID: "n1-sess-000001", State: StateRunning, Kind: "single",
		Problem: core.DefaultProblem(8, 20), Options: core.Options{Tasks: 1}, Segment: 5, Retain: 4,
		DoneSteps: 10, Fingerprint: "fp1", Created: now, Updated: now}
	if err := st.SaveRecord(rec); err != nil {
		t.Fatal(err)
	}
	// A corrupt record must not block the rest, and is named.
	if err := os.WriteFile(filepath.Join(dir, "sess-junk.json"), []byte("{notjson"), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, skipped, err := st.Records()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0] != rec {
		t.Fatalf("records %+v", recs)
	}
	if len(skipped) != 1 || skipped[0].File != "sess-junk.json" || skipped[0].Err == nil {
		t.Fatalf("skipped %+v, want sess-junk.json with its decode error", skipped)
	}
	if err := st.SaveRecord(Record{}); err == nil {
		t.Fatal("id-less record accepted")
	}
	// A save that cannot land (the rename target is a directory) reports the
	// error, leaves no temp file behind and does not disturb the others.
	if err := os.Mkdir(filepath.Join(dir, "sess-blocked.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.SaveRecord(Record{ID: "blocked"}); err == nil {
		t.Fatal("save over a directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed save left %v behind", tmps)
	}
	if recs, _, err := st.Records(); err != nil || len(recs) != 1 || recs[0] != rec {
		t.Fatalf("records after a failed save: %+v, %v", recs, err)
	}
}

// TestRecoverNamesSkippedRecords: a record the store cannot decode — a torn
// write, or a record in the format older binaries wrote, with problem and
// options as canonical strings — must not vanish silently. Recovery brings
// back the good session, names each skipped file with its error in the
// log, and neither it nor a later create touches those files.
func TestRecoverNamesSkippedRecords(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, dir, realRunner(), nil)
	good, err := m1.Create(testScenario(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, good, StateDone)
	m1.Close()
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

	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var logged bytes.Buffer
	m2, err := NewManager(Config{Store: st, Run: realRunner(), Logger: slog.New(slog.NewTextHandler(&logged, nil))})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m2.Close)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	if views := m2.List(); len(views) != 1 || views[0].ID != good.ID() || views[0].State != StateDone {
		t.Fatalf("recovered %+v, want only %s, done", views, good.ID())
	}
	recoveryLog := logged.String() // read before the next session's run loop logs
	// A skipped record still owns its id: the next session is minted past
	// it and so cannot land on its file.
	next, err := m2.Create(testScenario(5, 5))
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, next, StateDone)
	if next.ID() != "sess-000009" {
		t.Errorf("next session is %s, want sess-000009 (past both skipped records)", next.ID())
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

// TestResumeRollsBackOnFailedPersist: a Resume whose record write fails
// started no run loop, so the session must read paused again — not running
// forever — and resume for real once the store is writable.
func TestResumeRollsBackOnFailedPersist(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{}, 16)
	m := newTestManager(t, dir, gatedRunner(realRunner(), gate), nil)
	s, err := m.Create(testScenario(10, 5))
	if err != nil {
		t.Fatal(err)
	}
	gate <- struct{}{}
	waitFor(t, "first segment", func() bool { return s.Done() == 5 })
	if err := m.Pause(s.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StatePaused)

	// Make the record unwritable: the rename target becomes a directory.
	recPath := filepath.Join(dir, "sess-"+s.ID()+".json")
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
	if err := m.Resume(s.ID()); err == nil {
		t.Fatal("resume with an unwritable record succeeded")
	}
	if v := s.View(); v.State != StatePaused || v.Resumes != 0 || m.Stats().Resumes != 0 {
		t.Fatalf("after the failed resume: %+v, stats %+v; want paused, no resume counted", v, m.Stats())
	}
	if err := m.Pause(s.ID()); err == nil {
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
	if err := m.Resume(s.ID()); err != nil {
		t.Fatal(err)
	}
	waitState(t, s, StateDone)
	if v := s.View(); v.DoneSteps != 10 || v.Resumes != 1 {
		t.Fatalf("resumed view wrong: %+v", v)
	}
}

// TestRecordRoundTrip pins that storing a scenario as JSON moved no
// identity: a root and a forked session, with floats that have no short
// decimal form, come back from a reopened store with the fingerprint and
// the view they had.
func TestRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	m1 := newTestManager(t, dir, realRunner(), nil)
	sc := testScenario(10, 5)
	sc.Problem.Wave = grid.Gaussian{Center: [3]float64{1.1, 2.2 / 3, 3.3}, Sigma: 1.0 / 3}
	sc.Problem.T0 = 0.1 + 0.2
	root, err := m1.Create(sc)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, root, StateDone)
	opts := root.Scenario().Options
	opts.Threads = 2
	fork, err := m1.Fork(root.ID(), 5, opts, 15)
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, fork, StateDone)
	m1.Close()

	m2 := newTestManager(t, dir, realRunner(), nil)
	if _, err := m2.Recover(); err != nil {
		t.Fatal(err)
	}
	for _, was := range []*Session{root, fork} {
		got, ok := m2.Get(was.ID())
		if !ok {
			t.Fatalf("%s not recovered", was.ID())
		}
		if got.Fingerprint() != was.Fingerprint() || got.Scenario() != was.Scenario() {
			t.Errorf("%s: recovered scenario %+v (fp %s), want %+v (fp %s)",
				was.ID(), got.Scenario(), got.Fingerprint(), was.Scenario(), was.Fingerprint())
		}
		// What a view adds to the record is runtime state of the process
		// that ran the segments — a rebuilt terminal session has none —
		// and Updated, which a rebuild stamps anew.
		want, v := was.View(), got.View()
		want.LastCheckpoint, want.FieldHash, want.LastGF = 0, "", 0
		if !v.Created.Equal(want.Created) {
			t.Errorf("%s: created %v, want %v", was.ID(), v.Created, want.Created)
		}
		v.Created, v.Updated = want.Created, want.Updated
		if v != want {
			t.Errorf("%s: recovered view %+v, want %+v", was.ID(), v, want)
		}
	}
}
