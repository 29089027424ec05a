package service

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/session"
)

// lineLog collects SSE lines from a response body as they arrive, so a
// test can assert on the stream's shape while it is still open.
type lineLog struct {
	mu    sync.Mutex
	lines []string
	done  chan struct{}
}

func followSSE(resp *http.Response) *lineLog {
	l := &lineLog{done: make(chan struct{})}
	go func() {
		defer close(l.done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		for sc.Scan() {
			l.mu.Lock()
			l.lines = append(l.lines, sc.Text())
			l.mu.Unlock()
		}
	}()
	return l
}

func (l *lineLog) snapshot() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.lines...)
}

// count returns how many collected lines satisfy pred.
func (l *lineLog) count(pred func(string) bool) int {
	n := 0
	for _, line := range l.snapshot() {
		if pred(line) {
			n++
		}
	}
	return n
}

// waitFor polls until pred sees enough lines or the deadline passes.
func (l *lineLog) waitFor(t *testing.T, what string, want int, pred func(string) bool) {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for l.count(pred) < want {
		if time.Now().After(deadline) {
			t.Fatalf("never saw %d %s lines; stream so far:\n%s", want, what, strings.Join(l.snapshot(), "\n"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamHeartbeatOnIdleStream is the keep-alive satellite: an idle
// subscriber (stats interval effectively never) receives periodic SSE
// comment lines, the connection survives them, and a real event delivered
// afterwards still parses — heartbeats never leak into the event framing.
func TestStreamHeartbeatOnIdleStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, HeartbeatInterval: 50 * time.Millisecond})

	resp, err := http.Get(ts.URL + "/v1/stream?interval=1h")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	log := followSSE(resp)

	isHeartbeat := func(line string) bool { return strings.HasPrefix(line, ":") }
	log.waitFor(t, "heartbeat", 3, isHeartbeat)

	// The connection is demonstrably still alive after multiple idle
	// heartbeats: a job submitted now must arrive as a normal event.
	_, v := postJob(t, ts, predictBody)
	waitState(t, ts, v.ID, StateDone)
	log.waitFor(t, "job event", 1, func(line string) bool { return strings.HasPrefix(line, "event: job") })

	lines := log.snapshot()
	for i, line := range lines {
		// Every frame, the heartbeat comment included, ends in a blank line.
		if endsFrame := strings.HasPrefix(line, ":") || strings.HasPrefix(line, "data: "); endsFrame &&
			i+1 < len(lines) && lines[i+1] != "" {
			t.Errorf("frame ending %q is followed by %q, want a blank line", line, lines[i+1])
		}
		switch {
		case line == "" || strings.HasPrefix(line, "data: "):
		case strings.HasPrefix(line, ":"):
			if line != ": heartbeat" {
				t.Errorf("malformed heartbeat comment %q", line)
			}
		case strings.HasPrefix(line, "event: "):
			if name := strings.TrimPrefix(line, "event: "); name != "stats" && name != "job" && name != "anomaly" {
				t.Errorf("unexpected event name %q", name)
			}
		default:
			t.Errorf("line outside the SSE framing: %q", line)
		}
	}

	resp.Body.Close()
	<-log.done
}

// TestDebugBundleNodeStamped checks the node-local postmortem endpoint:
// the bundle is stamped with the node ID and carries the flight ring
// (including the lifecycle records of a finished job), profiles, and
// build info.
func TestDebugBundleNodeStamped(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, NodeID: "n1"})

	_, v := postJob(t, ts, predictBody)
	waitState(t, ts, v.ID, StateDone)

	resp, err := http.Get(ts.URL + "/v1/debug/bundle")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("bundle: want 200, got %v", resp.Status)
	}
	var b BundleDoc
	if err := json.NewDecoder(resp.Body).Decode(&b); err != nil {
		t.Fatalf("decode bundle: %v", err)
	}
	if b.Node != "n1" {
		t.Fatalf("bundle node = %q, want n1", b.Node)
	}
	if len(b.Flight.Records) == 0 {
		t.Fatal("bundle flight ring is empty")
	}
	sawJob := false
	for _, rec := range b.Flight.Records {
		if rec.JobID == v.ID {
			sawJob = true
		}
	}
	if !sawJob {
		t.Fatalf("no flight record for job %s in %d records", v.ID, len(b.Flight.Records))
	}
	if b.Profiles["goroutine"] == "" || b.Profiles["heap"] == "" {
		t.Fatalf("missing profiles, got keys %v", len(b.Profiles))
	}
	if b.Build.GoVersion == "" || b.Build.Goroutines <= 0 {
		t.Fatalf("build info incomplete: %+v", b.Build)
	}
	if b.Stats.Node != "n1" {
		t.Fatalf("embedded stats not node-stamped: %q", b.Stats.Node)
	}
}

// TestFlightRingHoldsEachTransitionOnce: a transition enters the flight ring
// once, as its teed log line with the id lifted — so a ring of R records
// after K sequential jobs holds the complete history of the last R/3 of
// them, each (job, transition) exactly once, and a session's created /
// segment / done lines are found under the session id the same way.
func TestFlightRingHoldsEachTransitionOnce(t *testing.T) {
	const ring, jobs = 12, 8
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, FlightEvents: ring, SessionDir: t.TempDir()})
	var ids []string
	for i := 1; i <= jobs; i++ {
		_, v := postJob(t, ts, fmt.Sprintf(
			`{"type":"predict","predict":{"machine":"Yona","kind":"bulk","cores":%d}}`, 12*i))
		waitState(t, ts, v.ID, StateDone)
		ids = append(ids, v.ID)
	}
	got := map[string]int{} // "job-id transition" → records
	for _, rec := range s.flight.Snapshot(time.Now()).Records {
		if rec.Kind != flight.KindLog {
			t.Errorf("ring record %+v: a lifecycle transition is a log record", rec)
		}
		got[rec.JobID+" "+rec.Msg]++
	}
	want := map[string]int{}
	for _, id := range ids[jobs-ring/3:] {
		for _, transition := range []string{"job submitted", "job started", "job finished"} {
			want[id+" "+transition] = 1
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ring of %d after %d jobs holds\n%v\nwant each transition of the last %d jobs once\n%v",
			ring, jobs, got, ring/3, want)
	}

	_, sv := postSession(t, ts, `{"simulate":{"kind":"bulk","n":8,"steps":4},"segment":2}`)
	waitSessionState(t, ts, sv.ID, session.StateDone)
	want = map[string]int{"session created": 1, "session segment": 2, "session done": 1}
	deadline := time.Now().Add(10 * time.Second)
	for {
		got = map[string]int{}
		for _, rec := range s.flight.Snapshot(time.Now()).Records {
			if rec.JobID == sv.ID {
				got[rec.Msg]++
			}
		}
		if reflect.DeepEqual(got, want) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("ring holds %v under session %s, want %v", got, sv.ID, want)
		}
		time.Sleep(5 * time.Millisecond) // "session done" is logged just after the state flips
	}
}
