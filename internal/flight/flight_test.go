package flight

import (
	"bytes"
	"fmt"
	"log/slog"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/telemetry"
)

func at(sec int) time.Time {
	return time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC).Add(time.Duration(sec) * time.Second)
}

func TestRecorderRingWrap(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Add(Record{Time: at(i), Kind: KindLog, Msg: "evt"})
	}
	if got := r.Len(); got != 4 {
		t.Fatalf("Len = %d, want 4", got)
	}
	s := r.Snapshot(at(10))
	if len(s.Records) != 4 {
		t.Fatalf("snapshot holds %d records, want 4", len(s.Records))
	}
	if s.Dropped != 6 {
		t.Errorf("Dropped = %d, want 6", s.Dropped)
	}
	for i, rec := range s.Records {
		if want := uint64(6 + i); rec.Seq != want {
			t.Errorf("record %d: Seq = %d, want %d (oldest first)", i, rec.Seq, want)
		}
	}
}

func TestRecorderPartialRing(t *testing.T) {
	r := NewRecorder(8)
	r.Add(Record{Msg: "one"})
	r.Add(Record{Msg: "two"})
	s := r.Snapshot(at(0))
	if len(s.Records) != 2 || s.Dropped != 0 {
		t.Fatalf("got %d records, dropped %d; want 2 records, 0 dropped", len(s.Records), s.Dropped)
	}
	if s.Records[0].Msg != "one" || s.Records[1].Msg != "two" {
		t.Errorf("records out of order: %q, %q", s.Records[0].Msg, s.Records[1].Msg)
	}
}

func TestRecorderFreezeBounded(t *testing.T) {
	r := NewRecorder(4)
	r.Add(Record{Msg: "evt"})
	for i := 0; i < DefaultFrozen+3; i++ {
		r.Freeze(at(i), "reason")
	}
	frozen := r.Frozen()
	if len(frozen) != DefaultFrozen {
		t.Fatalf("retained %d frozen snapshots, want %d", len(frozen), DefaultFrozen)
	}
	// Oldest freezes evicted: the first retained one is freeze #3.
	if !frozen[0].Taken.Equal(at(3)) {
		t.Errorf("oldest retained freeze taken at %v, want %v", frozen[0].Taken, at(3))
	}
	if frozen[0].Reason != "reason" {
		t.Errorf("Reason = %q", frozen[0].Reason)
	}
}

// TestFlightAddAllocatesNothing is the ci.sh alloc gate: every job
// transition and log line lands in the ring through Add, which must not
// allocate however often the ring wraps.
func TestFlightAddAllocatesNothing(t *testing.T) {
	r := NewRecorder(8)
	rec := Record{Time: at(0), Kind: KindLog, Msg: "evt", JobID: "j1"}
	avg := testing.AllocsPerRun(1000, func() {
		r.Add(rec)
		r.Span(at(0), "j1", "t1", "3 spans over 2 ranks")
	})
	if avg != 0 {
		t.Fatalf("Add allocates %.2f allocs/op, want 0", avg)
	}
}

func BenchmarkFlightAdd(b *testing.B) {
	r := NewRecorder(512)
	rec := Record{Time: at(0), Kind: KindLog, Msg: "evt"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Add(rec)
	}
}

func TestTeeHandlerCapturesAndForwards(t *testing.T) {
	rec := NewRecorder(16)
	var buf bytes.Buffer
	inner := slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelInfo})
	log := slog.New(TeeHandler(rec, inner))

	log.Info("job submitted", "job", "n1-42", "trace_id", "abc123", "type", "simulate", "cache_hit", false)

	s := rec.Snapshot(at(0))
	if len(s.Records) != 1 {
		t.Fatalf("recorder holds %d records, want 1", len(s.Records))
	}
	r := s.Records[0]
	if r.Kind != KindLog || r.Msg != "job submitted" || r.Level != "INFO" {
		t.Errorf("record = %+v", r)
	}
	if r.JobID != "n1-42" || r.TraceID != "abc123" {
		t.Errorf("job/trace not lifted: job=%q trace=%q", r.JobID, r.TraceID)
	}
	if !strings.Contains(r.Attrs, "type=simulate") || !strings.Contains(r.Attrs, "cache_hit=false") {
		t.Errorf("Attrs = %q", r.Attrs)
	}
	if strings.Contains(r.Attrs, "trace_id") {
		t.Errorf("trace_id left in Attrs: %q", r.Attrs)
	}
	if !strings.Contains(buf.String(), "job submitted") {
		t.Errorf("inner handler missed the record: %q", buf.String())
	}
}

func TestTeeHandlerWithAttrsAndGroups(t *testing.T) {
	rec := NewRecorder(16)
	inner := slog.NewTextHandler(&bytes.Buffer{}, nil)
	log := slog.New(TeeHandler(rec, inner)).
		With("job", "n2-7", "node", "n2").
		WithGroup("queue")
	log.Warn("queue full", "depth", 64)

	s := rec.Snapshot(at(0))
	if len(s.Records) != 1 {
		t.Fatalf("recorder holds %d records, want 1", len(s.Records))
	}
	r := s.Records[0]
	if r.JobID != "n2-7" {
		t.Errorf("JobID = %q, want from With attrs", r.JobID)
	}
	if !strings.Contains(r.Attrs, "node=n2") || !strings.Contains(r.Attrs, "queue.depth=64") {
		t.Errorf("Attrs = %q", r.Attrs)
	}
	if r.Level != "WARN" {
		t.Errorf("Level = %q", r.Level)
	}
}

// TestTeeHandlerLiftsSessionID: a node's session lines carry their
// session under "session"; the tee files them under the id as it does a
// job's, so a session transition needs no second ring record.
func TestTeeHandlerLiftsSessionID(t *testing.T) {
	rec := NewRecorder(4)
	log := slog.New(TeeHandler(rec, slog.NewTextHandler(&bytes.Buffer{}, nil)))
	log.Info("session segment", "session", "n1-sess-000003", "fp", "abc", "trace_id", "tr-9", "done", 50)
	r := rec.Snapshot(at(0)).Records[0]
	if r.JobID != "n1-sess-000003" || r.TraceID != "tr-9" || r.Msg != "session segment" {
		t.Errorf("record = %+v", r)
	}
	if r.Attrs != "fp=abc done=50" {
		t.Errorf("Attrs = %q, want the ids lifted out", r.Attrs)
	}
}

func TestTeeHandlerDebugBelowInnerLevel(t *testing.T) {
	rec := NewRecorder(16)
	var buf bytes.Buffer
	inner := slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelWarn})
	log := slog.New(TeeHandler(rec, inner))

	log.Debug("noise") // below both: dropped everywhere
	log.Info("quiet")  // teed but invisible on the inner handler

	if got := rec.Len(); got != 1 {
		t.Fatalf("recorder holds %d records, want only the Info one", got)
	}
	if buf.Len() != 0 {
		t.Errorf("inner handler emitted despite Warn level: %q", buf.String())
	}
}

func driftReport(fraction float64) *obs.Report {
	return &obs.Report{
		Total: []obs.PairOverlap{{
			Name:       obs.PairMPICompute,
			CommSec:    1.0,
			WorkSec:    2.0,
			OverlapSec: fraction,
			Fraction:   fraction,
		}},
	}
}

func TestEngineModelDrift(t *testing.T) {
	rec := NewRecorder(32)
	e := NewEngine(Rules{DriftTolerance: 0.35}, rec)
	var fired []Anomaly
	e.Notify(func(a Anomaly) { fired = append(fired, a) })

	rec.Add(Record{Time: at(0), Kind: KindLog, Msg: "job started", JobID: "n1-1", TraceID: "tr-1"})

	// A hybrid-overlap run measured ~0 hidden where the model expects it
	// to hide ~1.0 of the exchange: decisive drift.
	e.ObserveJob(at(1), JobSample{
		JobID: "n1-1", TraceID: "tr-1", Kind: "hybrid-overlap",
		N: 48, Tasks: 2, Threads: 1,
		Report: driftReport(0.0),
	})
	if len(fired) != 1 {
		t.Fatalf("fired %d anomalies, want 1", len(fired))
	}
	a := fired[0]
	if a.Rule != RuleModelDrift {
		t.Errorf("Rule = %q", a.Rule)
	}
	if a.JobID != "n1-1" || a.TraceID != "tr-1" {
		t.Errorf("anomaly ids = %q/%q", a.JobID, a.TraceID)
	}
	if a.Expected < 0.9 {
		t.Errorf("Expected = %g, want near 1 (hybrid-overlap prediction)", a.Expected)
	}
	if frozen := rec.Frozen(); len(frozen) != 1 || frozen[0].Reason != RuleModelDrift || len(frozen[0].Records) != 1 {
		t.Errorf("frozen = %+v, want one model-drift snapshot of the one ring record", frozen)
	}

	// Anomaly history reflects the firing.
	st := e.Anomalies()
	if st.Total != 1 || st.ByRule[RuleModelDrift] != 1 || st.Frozen != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestEngineDriftWithinTolerance(t *testing.T) {
	e := NewEngine(Rules{DriftTolerance: 0.35}, NewRecorder(0))
	fired := 0
	e.Notify(func(Anomaly) { fired++ })
	// Measured 0.9 where the model predicts ~1.0: inside the band.
	e.ObserveJob(at(1), JobSample{
		JobID: "n1-2", Kind: "hybrid-overlap",
		N: 48, Tasks: 2, Threads: 1,
		Report: driftReport(0.9),
	})
	if fired != 0 {
		t.Fatalf("fired %d anomalies inside the tolerance band", fired)
	}
}

func TestEngineStraggler(t *testing.T) {
	e := NewEngine(Rules{}, NewRecorder(0))
	var fired []Anomaly
	e.Notify(func(a Anomaly) { fired = append(fired, a) })

	rep := &obs.Report{Imbalance: &obs.ImbalanceReport{
		Ranks:     []obs.RankLoad{{Rank: 0, BusySec: 3.0}, {Rank: 1, BusySec: 0.5}},
		MeanSec:   1.75,
		MaxSec:    3.0,
		Ratio:     3.0 / 1.75,
		Straggler: 0,
	}}
	e.ObserveJob(at(1), JobSample{JobID: "n1-3", Report: rep})
	if len(fired) != 0 {
		t.Fatalf("ratio 1.71 fired below bound 2")
	}

	rep.Imbalance.Ratio = 2.5
	e.ObserveJob(at(2), JobSample{JobID: "n1-4", Report: rep})
	if len(fired) != 1 || fired[0].Rule != RuleStraggler {
		t.Fatalf("fired = %+v, want one straggler", fired)
	}
}

func TestEngineAnomalyHistoryBounded(t *testing.T) {
	e := NewEngine(Rules{}, NewRecorder(0))
	// A shed burst at every sweep, the sweeps one cooldown apart so each
	// one fires: six more firings than the history holds.
	const fired = maxAnomalies + 6
	for i := 0; i < fired; i++ {
		e.Sweep(at(0).Add(time.Duration(i)*cooldown), nil, telemetry.Stats{WindowSec: 60, Count: shedBurst})
	}
	st := e.Anomalies()
	if len(st.Recent) != maxAnomalies {
		t.Fatalf("retained %d anomalies, want %d", len(st.Recent), maxAnomalies)
	}
	if st.Total != fired {
		t.Errorf("Total = %d, want %d", st.Total, fired)
	}
	// Oldest evicted: retained history is the last maxAnomalies firings.
	if st.Recent[0].Seq != 6 || st.Recent[maxAnomalies-1].Seq != fired-1 {
		t.Errorf("retained seqs %d..%d, want 6..%d", st.Recent[0].Seq, st.Recent[maxAnomalies-1].Seq, fired-1)
	}
}

func TestEngineResumeLoop(t *testing.T) {
	e := NewEngine(Rules{}, NewRecorder(0))
	var fired []Anomaly
	e.Notify(func(a Anomaly) { fired = append(fired, a) })

	// Forward progress between resumes never fires, however many there are.
	for i := 0; i < 6; i++ {
		e.ObserveResume(at(i), "sess-ok", int64(100*i))
	}
	if len(fired) != 0 {
		t.Fatalf("advancing session fired %d anomalies", len(fired))
	}

	// Three resumes pinned at the same step is a crash loop.
	e.ObserveResume(at(10), "sess-stuck", 400)
	e.ObserveResume(at(11), "sess-stuck", 400)
	if len(fired) != 0 {
		t.Fatalf("fired below the bound: %d", len(fired))
	}
	e.ObserveResume(at(12), "sess-stuck", 400)
	if len(fired) != 1 || fired[0].Rule != RuleResumeLoop || fired[0].JobID != "sess-stuck" {
		t.Fatalf("fired = %+v, want one resume-loop for sess-stuck", fired)
	}
	if fired[0].Value != 3 || fired[0].Bound != 3 {
		t.Fatalf("value/bound = %v/%v, want 3/3", fired[0].Value, fired[0].Bound)
	}

	// Advancing past the stuck step resets the streak.
	e.ObserveResume(at(13), "sess-stuck", 600)
	e.ObserveResume(at(14), "sess-stuck", 600)
	if len(fired) != 1 {
		t.Fatalf("reset streak refired: %d", len(fired))
	}
}

func TestEngineResumeTrackBound(t *testing.T) {
	e := NewEngine(Rules{}, NewRecorder(0))
	for i := 0; i < maxResumeTracks+10; i++ {
		e.ObserveResume(at(i), fmt.Sprintf("s-%d", i), 0)
	}
	e.mu.Lock()
	n := len(e.resumes)
	e.mu.Unlock()
	if n > maxResumeTracks {
		t.Fatalf("resume tracker grew to %d entries, bound is %d", n, maxResumeTracks)
	}
}
