package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"reflect"
	"testing"
	"time"

	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/session"
)

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
// once, as its teed log line with the id lifted — so after K sequential jobs
// the ring holds each (job, transition) exactly once, and a session's
// created / segment / done lines are found under the session id the same
// way. Eviction is flight.TestRecorderRingWrap's concern.
func TestFlightRingHoldsEachTransitionOnce(t *testing.T) {
	const jobs = 8
	s, ts := newTestServer(t, Config{Workers: 1, QueueCap: 4, SessionDir: t.TempDir()})
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
	for _, id := range ids {
		for _, transition := range []string{"job submitted", "job started", "job finished"} {
			want[id+" "+transition] = 1
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("ring after %d jobs holds\n%v\nwant each transition once\n%v", jobs, got, want)
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

// TestAnomalyFiringEntersRingOnce: one engine firing is one flight-ring
// record, the "anomaly detected" log line, and the snapshot the firing
// freezes already holds it.
func TestAnomalyFiringEntersRingOnce(t *testing.T) {
	s, _ := newTestServer(t, Config{Workers: 1, QueueCap: 4})
	const id = "job-drift"
	// A hybrid-overlap run that hid nothing, where the model hides nearly
	// all of the exchange: a model-drift firing.
	s.engine.ObserveJob(time.Now(), flight.JobSample{
		JobID: id, Kind: "hybrid-overlap", N: 48, Tasks: 2, Threads: 1,
		Report: &obs.Report{Total: []obs.PairOverlap{{Name: obs.PairMPICompute, CommSec: 1, WorkSec: 2}}},
	})
	ofFiring := func(recs []flight.Record) []flight.Record {
		var out []flight.Record
		for _, rec := range recs {
			if rec.JobID == id {
				out = append(out, rec)
			}
		}
		return out
	}
	if got := ofFiring(s.flight.Snapshot(time.Now()).Records); len(got) != 1 || got[0].Msg != "anomaly detected" {
		t.Fatalf("ring holds %+v for the firing, want its one log line", got)
	}
	frozen := s.flight.Frozen()
	if len(frozen) != 1 || frozen[0].Reason != flight.RuleModelDrift {
		t.Fatalf("frozen snapshots %+v, want one for %s", frozen, flight.RuleModelDrift)
	}
	if got := ofFiring(frozen[0].Records); len(got) != 1 {
		t.Fatalf("frozen snapshot holds %+v for the firing, want its log line", got)
	}
}
