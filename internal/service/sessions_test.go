package service

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/session"
)

func postSession(t *testing.T, ts *httptest.Server, body string) (*http.Response, session.View) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v session.View
	if resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode session view: %v", err)
		}
	}
	return resp, v
}

func getSession(t *testing.T, ts *httptest.Server, id string) session.View {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("session status: %v", resp.Status)
	}
	var v session.View
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitSessionState(t *testing.T, ts *httptest.Server, id string, want session.State) session.View {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		v := getSession(t, ts, id)
		if v.State == want {
			return v
		}
		if v.State.Terminal() {
			t.Fatalf("session %s landed in %s (error %q), want %s", id, v.State, v.Error, want)
		}
		if time.Now().After(deadline) {
			t.Fatalf("session %s stuck in %s at step %d, want %s", id, v.State, v.DoneSteps, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func statsDoc(t *testing.T, ts *httptest.Server) TelemetryStats {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st TelemetryStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestSessionLifecycleHTTP drives a session over the API: create, run to
// completion across several segments, fork from a retained checkpoint with
// mutated options, and pull raw checkpoint bytes for replication.
func TestSessionLifecycleHTTP(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 2, SessionDir: dir})

	resp, v := postSession(t, ts,
		`{"simulate":{"kind":"bulk","n":8,"steps":40},"segment":10,"retain":4}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %v", resp.Status)
	}
	// The session runs from the moment it exists, so the create response
	// guarantees its shape, not how far it has got: eight-point segments can
	// all be done before the view is taken.
	if (v.State != session.StateRunning && v.State != session.StateDone) || v.TotalSteps != 40 || v.Segment != 10 {
		t.Fatalf("fresh session %+v", v)
	}
	done := waitSessionState(t, ts, v.ID, session.StateDone)
	if done.DoneSteps != 40 || done.Segments != 4 || done.FieldHash == "" {
		t.Fatalf("finished session %+v", done)
	}

	// Pause after completion conflicts; unknown ids are 404.
	pr, err := http.Post(ts.URL+"/v1/sessions/"+v.ID+"/pause", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	pr.Body.Close()
	if pr.StatusCode != http.StatusConflict {
		t.Fatalf("pause done session: %v", pr.Status)
	}
	nr, err := http.Get(ts.URL + "/v1/sessions/nope")
	if err != nil {
		t.Fatal(err)
	}
	nr.Body.Close()
	if nr.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: %v", nr.Status)
	}

	// Fork from the middle with more threads and a longer trajectory.
	fr, err := http.Post(ts.URL+"/v1/sessions/"+v.ID+"/fork", "application/json",
		strings.NewReader(`{"at_step":20,"total_steps":60,"threads":2}`))
	if err != nil {
		t.Fatal(err)
	}
	var child session.View
	if err := json.NewDecoder(fr.Body).Decode(&child); err != nil {
		t.Fatal(err)
	}
	fr.Body.Close()
	if fr.StatusCode != http.StatusAccepted {
		t.Fatalf("fork: %v", fr.Status)
	}
	if child.ParentFP != done.Fingerprint || child.ParentStep != 20 || child.DoneSteps < 20 || child.DoneSteps%10 != 0 {
		t.Fatalf("fork child %+v", child)
	}
	childDone := waitSessionState(t, ts, child.ID, session.StateDone)
	if childDone.DoneSteps != 60 {
		t.Fatalf("fork child finished at %d steps, want 60", childDone.DoneSteps)
	}

	// The replication surface serves the newest checkpoint with its step
	// and fingerprint, and retained older steps on request.
	cr, err := http.Get(ts.URL + "/v1/sessions/" + v.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	blob, _ := io.ReadAll(cr.Body)
	cr.Body.Close()
	if cr.StatusCode != http.StatusOK || len(blob) == 0 {
		t.Fatalf("checkpoint: %v (%d bytes)", cr.Status, len(blob))
	}
	if got := cr.Header.Get(SessionStepHeader); got != "40" {
		t.Fatalf("checkpoint step header %q, want 40", got)
	}
	if got := cr.Header.Get(SessionFPHeader); got != done.Fingerprint {
		t.Fatalf("checkpoint fp header %q, want %q", got, done.Fingerprint)
	}

	// Listing shows both sessions; stats count them.
	lr, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct {
		Sessions []session.View `json:"sessions"`
	}
	if err := json.NewDecoder(lr.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	lr.Body.Close()
	if len(list.Sessions) != 2 {
		t.Fatalf("listed %d sessions, want 2", len(list.Sessions))
	}
	st := statsDoc(t, ts)
	if st.Sessions == nil || st.Sessions.Done != 2 || st.Sessions.Forks != 1 || st.Sessions.Segments < 8 {
		t.Fatalf("session stats %+v", st.Sessions)
	}

	// A seeded create on a fresh node (the failover path) continues from
	// the shipped checkpoint instead of step zero.
	dir2 := t.TempDir()
	_, ts2 := newTestServer(t, Config{Workers: 2, SessionDir: dir2})
	seeded := fmt.Sprintf(
		`{"simulate":{"kind":"bulk","n":8,"steps":80},"segment":10,"checkpoint":%q}`,
		base64.StdEncoding.EncodeToString(blob))
	resp2, v2 := postSession(t, ts2, seeded)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("seeded create: %v", resp2.Status)
	}
	if v2.DoneSteps < 40 || v2.DoneSteps%10 != 0 || v2.Resumes != 1 {
		t.Fatalf("seeded session %+v", v2)
	}
	if got := waitSessionState(t, ts2, v2.ID, session.StateDone); got.DoneSteps != 80 {
		t.Fatalf("seeded session finished at %d steps, want 80", got.DoneSteps)
	}
}

// TestFingerprintsPinned holds the content-addressed identities to the
// values the commit before Options.TraceOverlap was retired computed: the
// o1 encoding still carries the constant trace=0, so result-cache keys,
// session fingerprints (the prefix of every checkpoint file in a store) and
// fork fingerprints written by older builds stay valid.
func TestFingerprintsPinned(t *testing.T) {
	sr := &SimulateRequest{Kind: "hybrid-overlap", N: 24, Steps: 10, Tasks: 2, Threads: 2, GPU: "c1060", Verify: true}
	req := Request{Type: TypeSimulate, Simulate: sr}
	if got, want := req.CacheKey(), "sim-36028ecf83d1e3969c1a6ff4e8576dbdc148027d181e513a61a9ac4fe4c37df6"; got != want {
		t.Errorf("simulate cache key (core.Fingerprint) = %s, want %s", got, want)
	}
	fp, err := SessionFingerprint(SessionRequest{Simulate: sr})
	if want := "c2f2c1900f37193f45c1f2b291edd4ffb87bdb2c52cd3ee9ad0f46d6a7187559"; err != nil || fp != want {
		t.Errorf("session fingerprint = %s (%v), want %s", fp, err, want)
	}
	sc, err := (&SessionRequest{Simulate: sr}).scenario()
	if err != nil {
		t.Fatal(err)
	}
	sc.Options, sc.ParentFP, sc.ParentStep = sc.Options.Normalize(), fp, 5
	if got, want := sc.Fingerprint(), "6afc40ce6adbe7b7b84c8567fc393db631305e01aed17aa3ef3b647f0d34b025"; got != want {
		t.Errorf("fork fingerprint = %s, want %s", got, want)
	}
}

// TestSessionValidation pins the request checks: trace is rejected, zero
// steps are rejected, and a node without a session directory answers 503.
func TestSessionValidation(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{Workers: 1, SessionDir: dir})
	for _, body := range []string{
		`{"simulate":{"kind":"bulk","n":8,"steps":10,"trace":true}}`,
		`{"simulate":{"kind":"bulk","n":8,"steps":0}}`,
		`{"simulate":{"kind":"bulk","n":8,"steps":10},"segment":99}`,
		`{}`,
	} {
		resp, _ := postSession(t, ts, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %s: %v, want 400", body, resp.Status)
		}
	}

	_, bare := newTestServer(t, Config{Workers: 1})
	resp, _ := postSession(t, bare, `{"simulate":{"kind":"bulk","n":8,"steps":10}}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("sessions on a bare node: %v, want 503", resp.Status)
	}
}

// TestForkRespectsLimits: a fork's merged options meet the node's Limits
// as a create's do — out-of-range threads, tasks or total steps are a 400
// worded as create words it, and no child is made.
func TestForkRespectsLimits(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, SessionDir: t.TempDir()})
	resp, v := postSession(t, ts, `{"simulate":{"kind":"bulk","n":8,"steps":20},"segment":10}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %v", resp.Status)
	}
	waitSessionState(t, ts, v.ID, session.StateDone)
	fork := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/sessions/"+v.ID+"/fork", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(msg)
	}
	for body, want := range map[string]string{
		`{"at_step":10,"threads":65}`:        "threads 65 out of range [0, 64]",
		`{"at_step":10,"tasks":65}`:          "tasks 65 out of range [0, 64]",
		`{"at_step":10,"total_steps":10001}`: "steps 10001 out of range [0, 10000]",
	} {
		if code, msg := fork(body); code != http.StatusBadRequest || !strings.Contains(msg, want) {
			t.Errorf("fork %s: %d %s, want 400 naming %q", body, code, msg, want)
		}
	}
	lr, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var list struct{ Sessions []session.View }
	err = json.NewDecoder(lr.Body).Decode(&list)
	lr.Body.Close()
	if err != nil || len(list.Sessions) != 1 {
		t.Fatalf("sessions after refused forks: %+v (%v), want the parent alone", list.Sessions, err)
	}
	code, msg := fork(`{"at_step":10,"threads":2}`)
	var child session.View
	if err := json.Unmarshal([]byte(msg), &child); code != http.StatusAccepted || err != nil {
		t.Fatalf("fork within limits: %d %s, want 202", code, msg)
	}
	waitSessionState(t, ts, child.ID, session.StateDone)
}

// TestSessionDurabilityAcrossRestart is the e2e durability run the issue
// demands: a session interrupted by a full server shutdown mid-run is
// resumed by the next server over the same directory and finishes with a
// field bitwise-equal to an uninterrupted run of the same scenario.
func TestSessionDurabilityAcrossRestart(t *testing.T) {
	const body = `{"simulate":{"kind":"bulk","n":24,"steps":3000},"segment":200}`

	// Reference: the same scenario, uninterrupted, on its own store.
	_, refTS := newTestServer(t, Config{Workers: 2, SessionDir: t.TempDir()})
	resp, ref := postSession(t, refTS, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("reference create: %v", resp.Status)
	}
	refDone := waitSessionState(t, refTS, ref.ID, session.StateDone)
	if refDone.FieldHash == "" {
		t.Fatal("reference session has no field hash")
	}

	// Interrupted: shut the whole server down as soon as the first durable
	// checkpoint lands, long before the trajectory completes.
	dir := t.TempDir()
	s1 := New(Config{Workers: 2, SessionDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	resp, v := postSession(t, ts1, body)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %v", resp.Status)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		cur := getSession(t, ts1, v.ID)
		if cur.DoneSteps >= 200 && cur.State == session.StateRunning {
			break
		}
		if cur.State.Terminal() {
			t.Fatalf("session finished (%s at %d) before the test could interrupt it; grow the problem",
				cur.State, cur.DoneSteps)
		}
		if time.Now().After(deadline) {
			t.Fatal("no durable checkpoint landed in time")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	ts1.Close()

	// Restart over the same directory: recovery rescans the store and the
	// session resumes from its last durable checkpoint under its old id.
	_, ts2 := newTestServer(t, Config{Workers: 2, SessionDir: dir})
	got := getSession(t, ts2, v.ID)
	if got.ID != v.ID || got.Resumes < 1 {
		t.Fatalf("recovered session %+v", got)
	}
	final := waitSessionState(t, ts2, v.ID, session.StateDone)
	if final.DoneSteps != 3000 {
		t.Fatalf("recovered session finished at %d steps, want 3000", final.DoneSteps)
	}
	if final.FieldHash != refDone.FieldHash {
		t.Fatalf("recovered field hash %s differs from uninterrupted %s — resume is not bitwise-faithful",
			final.FieldHash, refDone.FieldHash)
	}
	st := statsDoc(t, ts2)
	if st.Sessions == nil || st.Sessions.Recovered < 1 || st.Sessions.Resumes < 1 {
		t.Fatalf("recovery not visible in stats: %+v", st.Sessions)
	}
}

// TestCancelWhileQueuedSkipsExecution pins the tightened queued→cancelled
// transition: a job cancelled while waiting in the queue is counted, gets
// its terminal event published, and never receives an exec span or a
// telemetry observation.
func TestCancelWhileQueuedSkipsExecution(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 8})

	// Occupy the single worker so the victim stays queued.
	resp, slow := postJob(t, ts, slowBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("slow submit: %v", resp.Status)
	}
	waitState(t, ts, slow.ID, StateRunning)

	resp, victim := postJob(t, ts,
		`{"type":"simulate","simulate":{"kind":"bulk","n":12,"steps":7,"trace":true}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("victim submit: %v", resp.Status)
	}
	if victim.State != StateQueued {
		t.Fatalf("victim in state %s, want queued", victim.State)
	}

	// Cancel the queued victim, then free the worker; the worker must pop
	// the victim and skip it without executing.
	for _, id := range []string{victim.ID, slow.ID} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+id, nil)
		dr, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		dr.Body.Close()
		if dr.StatusCode != http.StatusOK {
			t.Fatalf("cancel %s: %v", id, dr.Status)
		}
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := metricsJSON(t, ts)
		if snap.Jobs["simulate"]["cancelled"] == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("cancelled outcomes %v", snap.Jobs["simulate"])
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The victim ran nothing: no worker-exec span on its recorder, and the
	// only queue-wait observation in the window belongs to the slow job.
	j, ok := s.store.Get(victim.ID)
	if !ok {
		t.Fatal("victim missing from store")
	}
	for _, sp := range j.Trace().Spans() {
		if sp.Phase == obs.PhaseWorkerExec || sp.Phase == obs.PhaseQueueWait {
			t.Fatalf("cancelled-while-queued job recorded a %v span", sp.Phase)
		}
	}
	st := statsDoc(t, ts)
	if st.QueueWait.Count != 1 {
		t.Fatalf("queue-wait observations %d, want 1 (slow job only)", st.QueueWait.Count)
	}
	if st.Exec["simulate"].Count != 0 {
		t.Fatalf("exec window saw %d simulate jobs, want 0 (both were cancelled)", st.Exec["simulate"].Count)
	}
}

// TestRequestBodiesAreBounded: every JSON request document is read through
// a size limit — 1 MiB for job and fork documents, and for a session create
// the base64 of a checkpoint at the node's largest grid on top of that — so
// a client cannot make the node buffer an arbitrary body, while a seeded
// create at the largest grid (over 1 MiB here) still goes through.
func TestRequestBodiesAreBounded(t *testing.T) {
	lim := DefaultLimits()
	lim.MaxN = 48
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2, Limits: lim, SessionDir: t.TempDir()})
	post := func(path, body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		_, _ = io.Copy(io.Discard, resp.Body)
		return resp.StatusCode
	}

	resp, v := postSession(t, ts, `{"simulate":{"kind":"single","n":48,"steps":1}}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("create: %v", resp.Status)
	}
	waitSessionState(t, ts, v.ID, session.StateDone)
	cr, err := http.Get(ts.URL + "/v1/sessions/" + v.ID + "/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	ckpt, _ := io.ReadAll(cr.Body)
	cr.Body.Close()
	seeded, err := json.Marshal(SessionRequest{
		Simulate: &SimulateRequest{Kind: "single", N: 48, Steps: 2}, Checkpoint: ckpt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seeded) <= MaxDocBytes {
		t.Fatalf("seeded create is %d bytes; the test needs one over the %d-byte document limit", len(seeded), MaxDocBytes)
	}
	if got := post("/v1/sessions", string(seeded)); got != http.StatusAccepted {
		t.Errorf("seeded create at the largest grid (%d bytes): status %d, want 202", len(seeded), got)
	}

	// JSON allows leading whitespace, so padding keeps each document valid:
	// only its size is wrong.
	pad := strings.Repeat(" ", MaxDocBytes)
	for path, body := range map[string]string{
		"/v1/jobs":                       pad + simulateBody,
		"/v1/sessions/" + v.ID + "/fork": pad + `{"total_steps":3}`,
		"/v1/sessions":                   strings.Repeat(" ", int(lim.SessionBodyBytes())) + string(seeded),
	} {
		if got := post(path, body); got != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with a %d-byte body: status %d, want 413", path, len(body), got)
		}
	}
}

// TestSeedOfOtherDimsRefused: a seeded create whose checkpoint claims
// other extents than the scenario's grid is refused with a 400 that names
// the dims, before the field is read — a bare header that claims
// 8192×8192×2 included.
func TestSeedOfOtherDimsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 2, SessionDir: t.TempDir()})
	hostile := []byte("ADVCKPT2")
	for _, v := range []uint64{8192, 8192, 2} {
		hostile = binary.LittleEndian.AppendUint64(hostile, v)
	}
	var small bytes.Buffer
	n := grid.Uniform(8)
	if err := checkpoint.Save(&small, checkpoint.Meta{N: n, Nu: 1}, grid.NewField(n, 1)); err != nil {
		t.Fatal(err)
	}
	for name, seed := range map[string][]byte{"8192x8192x2 header": hostile, "8³ checkpoint": small.Bytes()} {
		body, err := json.Marshal(SessionRequest{Simulate: &SimulateRequest{Kind: "single", N: 16, Steps: 2}, Checkpoint: seed})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		msg, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "dims") {
			t.Errorf("%s seeding a 16³ session: %d %s, want 400 naming the dims", name, resp.StatusCode, msg)
		}
	}
}

// TestViewsNameTheNode: a cluster node names itself in its job and session
// views; a session recovered from its record answers with the id of the
// node that recovered it, not the one that wrote the record; a standalone
// node's views carry no node at all.
func TestViewsNameTheNode(t *testing.T) {
	const predict = `{"type":"predict","predict":{"machine":"Yona","kind":"bulk","cores":12}}`
	const short = `{"simulate":{"kind":"bulk","n":8,"steps":4},"segment":2}`
	dir := t.TempDir()
	s1 := New(Config{NodeID: "n1", SessionDir: dir})
	ts1 := httptest.NewServer(s1.Handler())
	if _, job := postJob(t, ts1, predict); job.Node != "n1" {
		t.Errorf("job view names node %q, want n1", job.Node)
	}
	_, sv := postSession(t, ts1, short)
	if done := waitSessionState(t, ts1, sv.ID, session.StateDone); done.Node != "n1" {
		t.Errorf("session view names node %q, want n1", done.Node)
	}
	if err := s1.Shutdown(); err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{NodeID: "n2", SessionDir: dir})
	t.Cleanup(func() { _ = s2.Shutdown() })
	if got := getSession(t, ts2, sv.ID); got.Node != "n2" {
		t.Errorf("recovered session names node %q, want n2", got.Node)
	}

	s3, alone := newTestServer(t, Config{SessionDir: t.TempDir()})
	t.Cleanup(func() { _ = s3.Shutdown() }) // before the directory goes: the session may still be running
	_, job := postJob(t, alone, predict)
	_, sv = postSession(t, alone, short)
	for _, path := range []string{"/v1/jobs/" + job.ID, "/v1/sessions/" + sv.ID} {
		resp, err := http.Get(alone.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if _, named := doc["node"]; err != nil || named {
			t.Errorf("standalone %s: %v, err %v; want no node", path, doc, err)
		}
	}
}
