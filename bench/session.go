package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"time"

	advect "repro"
	"repro/internal/grid"
	"repro/internal/service"
	"repro/internal/session"
)

// sessionCkpt is the session pass of a traced run: long runs as sessions
// that checkpoint every segment, forks that read a retained checkpoint back,
// and a restart over the populated store.
type sessionCkpt struct {
	n, steps, segment int

	node *node
	dir  string
	nu   *counter
}

func (w *sessionCkpt) nodeConfig() service.Config {
	return service.Config{Workers: 2, QueueCap: 64, SessionDir: w.dir}
}

func (w *sessionCkpt) setup(c *runCtx) error {
	w.nu = &counter{next: c.rng.Intn(400_000)}
	dir, err := os.MkdirTemp(c.outDir, "sessions-")
	if err != nil {
		return err
	}
	w.dir = dir
	n, err := startNode(w.nodeConfig())
	if err != nil {
		return err
	}
	if !n.srv.SessionsEnabled() {
		n.stop(c.ctx)
		return fmt.Errorf("session store %s could not be opened", dir)
	}
	w.node = n
	return nil
}

func (w *sessionCkpt) teardown() {
	if w.node != nil {
		w.node.stop(context.Background())
		w.node = nil
	}
	if w.dir != "" {
		_ = os.RemoveAll(w.dir) // scratch under bench/out; a leftover is harmless
		w.dir = ""
	}
}

// interiorHash is the session package's field_hash: SHA-256 over the
// interior values, x fastest.
func interiorHash(f *grid.Field) string {
	h := sha256.New()
	var buf [8]byte
	for k := 0; k < f.N.Z; k++ {
		for j := 0; j < f.N.Y; j++ {
			for i := 0; i < f.N.X; i++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.At(i, j, k)))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sessionRun is one finished session as the client saw it.
type sessionRun struct {
	view     session.View
	nu       float64
	wall     float64   // POST sent → state done observed
	segments []float64 // seconds between observed done_steps advances
}

// sessionStats is what the session phase measured.
type sessionStats struct {
	sessions []sessionRun
	forkMS   []float64
	statusUS []float64
	runWall  []float64 // the same steps as one uninterrupted advect.Run
}

// follow polls a session every two milliseconds until it is terminal.
func (w *sessionCkpt) follow(c *runCtx, cl *client, st *sessionStats, v session.View, t0 time.Time) (sessionRun, bool) {
	run := sessionRun{}
	last, lastAt := v.DoneSteps, t0
	for !v.State.Terminal() {
		time.Sleep(2 * time.Millisecond)
		p0 := time.Now()
		status, data, err := cl.do(c.ctx, http.MethodGet, "/v1/sessions/"+v.ID, nil)
		st.statusUS = append(st.statusUS, time.Since(p0).Seconds()*1e6)
		if err != nil || status != http.StatusOK || json.Unmarshal(data, &v) != nil {
			c.ops.fail("GET /v1/sessions/%s: status %d: %v", v.ID, status, err)
			return run, false
		}
		if v.DoneSteps > last {
			now := time.Now()
			run.segments = append(run.segments, now.Sub(lastAt).Seconds())
			last, lastAt = v.DoneSteps, now
		}
	}
	run.view, run.wall = v, time.Since(t0).Seconds()
	if v.State != session.StateDone {
		c.ops.fail("session %s ended %s: %s", v.ID, v.State, v.Error)
		return run, false
	}
	return run, true
}

// post sends a session-creating request and decodes the View it returns.
func (w *sessionCkpt) post(c *runCtx, cl *client, path string, body any) (session.View, bool) {
	var v session.View
	data, err := json.Marshal(body)
	if err != nil {
		c.ops.fail("POST %s: %v", path, err)
		return v, false
	}
	status, reply, err := cl.do(c.ctx, http.MethodPost, path, data)
	if err != nil || status != http.StatusAccepted || json.Unmarshal(reply, &v) != nil {
		c.ops.fail("POST %s: status %d: %v %s", path, status, err, reply)
		return v, false
	}
	return v, true
}

// runSession creates one session of the workload's shape and follows it to
// done, checking what every session must satisfy.
func (w *sessionCkpt) runSession(c *runCtx, cl *client, st *sessionStats, parent, req int) (sessionRun, bool) {
	c.ops.attempted++
	nu := jitteredNu(w.nu.take())
	id := c.tr.begin("session.create_to_done", parent, req)
	t0 := time.Now()
	v, ok := w.post(c, cl, "/v1/sessions", service.SessionRequest{
		Simulate: &service.SimulateRequest{Kind: "bulk", N: w.n, Steps: w.steps, Nu: nu, Tasks: 2},
		Segment:  w.segment,
	})
	if !ok {
		c.tr.end(id, 0)
		return sessionRun{}, false
	}
	run, ok := w.follow(c, cl, st, v, t0)
	c.tr.end(id, float64(w.steps/w.segment))
	if !ok {
		return run, false
	}
	run.nu = nu
	want := int64((w.steps + w.segment - 1) / w.segment)
	if v := run.view; v.Segments != want || v.DoneSteps != int64(w.steps) || v.LastCheckpoint != int64(w.steps) || v.FieldHash == "" {
		c.ops.fail("session %s: %d segments (want %d), %d steps, checkpoint at %d, hash %q",
			v.ID, v.Segments, want, v.DoneSteps, v.LastCheckpoint, v.FieldHash)
		return run, false
	}
	st.sessions = append(st.sessions, run)
	return run, true
}

// fork branches a finished session at its last-but-one retained checkpoint
// and runs the remaining segment: the checkpoint read path. The child
// repeats the parent's last segment, so it must land on the parent's hash.
func (w *sessionCkpt) fork(c *runCtx, cl *client, st *sessionStats, parent sessionRun, span, req int) {
	c.ops.attempted++
	at := int64(w.steps - w.segment)
	id := c.tr.begin("session.fork_to_done", span, req)
	t0 := time.Now()
	v, ok := w.post(c, cl, "/v1/sessions/"+parent.view.ID+"/fork",
		service.ForkRequest{AtStep: &at, TotalSteps: int64(w.steps)})
	if !ok {
		c.tr.end(id, 0)
		return
	}
	run, ok := w.follow(c, cl, st, v, t0)
	c.tr.end(id, 1)
	if !ok {
		return
	}
	if run.view.DoneSteps != int64(w.steps) || run.view.FieldHash != parent.view.FieldHash {
		c.ops.fail("fork %s of %s: finished at step %d with hash %.12s, parent %.12s",
			run.view.ID, parent.view.ID, run.view.DoneSteps, run.view.FieldHash, parent.view.FieldHash)
		return
	}
	st.forkMS = append(st.forkMS, run.wall*1e3)
}

// uninterrupted runs a session's whole trajectory as one advect.Run and
// checks the session's field hash against it, bit for bit.
func (w *sessionCkpt) uninterrupted(c *runCtx, st *sessionStats, run sessionRun) {
	c.ops.attempted++
	p := advect.NewProblem(w.n, w.steps)
	p.Nu = run.nu
	id := c.tr.begin("impl.run.bulk", 0, 0)
	t0 := time.Now()
	res, err := advect.Run(advect.BulkSync, p, t2t1)
	wall := time.Since(t0).Seconds()
	c.tr.end(id, float64(p.N.Volume())*float64(p.Steps))
	if err != nil {
		c.ops.fail("uninterrupted run: %v", err)
		return
	}
	if h := interiorHash(res.Final); h != run.view.FieldHash {
		c.ops.fail("session %s: field hash %.12s differs from the uninterrupted run's %.12s", run.view.ID, run.view.FieldHash, h)
		return
	}
	st.runWall = append(st.runWall, wall)
}

// restart stops the node and starts another over the populated store: the
// recovery scan must bring every session back, finished.
func (w *sessionCkpt) restart(c *runCtx, want int) (float64, bool) {
	c.ops.attempted++
	w.node.stop(c.ctx)
	w.node = nil
	id := c.tr.begin("session.recover", 0, 0)
	t0 := time.Now()
	n, err := startNode(w.nodeConfig())
	sec := time.Since(t0).Seconds()
	c.tr.end(id, float64(want))
	if err != nil {
		c.ops.fail("restart: %v", err)
		return 0, false
	}
	w.node = n
	cl := newClient(n.url)
	defer cl.close()
	var doc struct {
		Sessions []session.View `json:"sessions"`
	}
	status, data, err := cl.do(c.ctx, http.MethodGet, "/v1/sessions", nil)
	if err != nil || status != http.StatusOK || json.Unmarshal(data, &doc) != nil {
		c.ops.fail("GET /v1/sessions after restart: status %d: %v", status, err)
		return 0, false
	}
	done := 0
	for _, v := range doc.Sessions {
		if v.State == session.StateDone {
			done++
		}
	}
	if done != want {
		c.ops.fail("restart recovered %d finished sessions of %d", done, want)
		return 0, false
	}
	return sec, true
}

func (w *sessionCkpt) measure(c *runCtx) {
	cl := newClient(w.node.url)
	defer cl.close()
	st := &sessionStats{}

	// One untimed session warms the store, the session pool and the runner.
	w.runSession(c, cl, &sessionStats{}, 0, 0)

	// The phase runs whole units of two sessions and one fork of the second,
	// so that sessions and forks keep their shares whenever it ends: one unit
	// at least, then for as long as at least half of another of the last
	// one's length fits before the deadline.
	phase := c.tr.begin("bench.phase.sessions", 0, 0)
	deadline := c.deadline(1)
	for unit := 1; ; unit++ {
		t0 := time.Now()
		w.runSession(c, cl, st, phase, 2*unit-1)
		if run, ok := w.runSession(c, cl, st, phase, 2*unit); ok {
			w.fork(c, cl, st, run, phase, 2*unit)
		}
		if now := time.Now(); now.Add(now.Sub(t0) / 2).After(deadline) {
			break
		}
	}
	c.tr.end(phase, float64(len(st.sessions)))

	// Outside the timed phase: every fourth session, and the last, against
	// the uninterrupted run of its own ν.
	for i, run := range st.sessions {
		if i%4 == 0 || i == len(st.sessions)-1 {
			w.uninterrupted(c, st, run)
		}
	}
	created := 1 + len(st.sessions) + len(st.forkMS)
	recoverSec, recovered := w.restart(c, created)

	var wall, segs []float64
	for _, s := range st.sessions {
		wall = append(wall, s.wall)
		segs = append(segs, s.segments...)
	}
	m := c.m
	m.putSamples("session.session_s", wall)
	m.putSamples("session.segment_ms_p50", scale(segs, 1e3))
	m.putSamples("session.fork_ms_p50", st.forkMS)
	m.putSamples("session.status_us_p50", st.statusUS)
	if recovered {
		m.put("session.recover_ms", recoverSec*1e3)
	}
	if len(wall) > 0 && len(st.runWall) > 0 {
		m.put("session.durability_tax", median(wall)/median(st.runWall))
	}
}
