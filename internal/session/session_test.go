package session

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/grid"
	_ "repro/internal/impl"
)

func testScenario(steps, segment int) Scenario {
	return Scenario{
		Kind:    core.SingleTask,
		Problem: core.DefaultProblem(8, steps),
		Segment: segment,
	}
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

func TestStoreRoundTrip(t *testing.T) {
	st, err := Open(filepath.Join(t.TempDir(), "nested", "dir"))
	if err != nil {
		t.Fatal(err)
	}
	n := grid.Uniform(4)
	f := grid.NewField(n, 1)
	f.Fill(func(i, j, k int) float64 { return float64(i*100 + j*10 + k) })
	meta := checkpoint.Meta{N: n, Nu: 1, T0: 2, StepsDone: 10, Fingerprint: "fp1", Options: "o1;x=1"}
	if _, err := st.SaveCheckpoint(meta, f); err != nil {
		t.Fatal(err)
	}
	for _, step := range []int64{20, 30, 40} {
		meta.StepsDone = step
		if _, err := st.SaveCheckpoint(meta, f); err != nil {
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
	if _, err := st.SaveCheckpoint(checkpoint.Meta{N: n}, f); err == nil {
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
	rec := Record{
		View: View{ID: "n1-sess-000001", State: StateRunning, Kind: "single", Segment: 5, Retain: 4,
			DoneSteps: 10, Fingerprint: "fp1", Created: now, Updated: now, LastCheckpoint: 10, FieldHash: "h"},
		Problem: core.DefaultProblem(8, 20), Options: core.Options{Tasks: 1},
	}
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
	if err := st.SaveRecord(Record{View: View{ID: "blocked"}}); err == nil {
		t.Fatal("save over a directory succeeded")
	}
	if tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(tmps) != 0 {
		t.Fatalf("failed save left %v behind", tmps)
	}
	if recs, _, err := st.Records(); err != nil || len(recs) != 1 || recs[0] != rec {
		t.Fatalf("records after a failed save: %+v, %v", recs, err)
	}

	// A record inverts to its scenario only under the fingerprint it names,
	// and storing a scenario as JSON moves no identity, floats with no short
	// decimal form included.
	if _, err := rec.Scenario(); err == nil {
		t.Fatal("record with a foreign fingerprint rebuilt")
	}
	sc := testScenario(20, 5)
	sc.Problem.Wave = grid.Gaussian{Center: [3]float64{1.1, 2.2 / 3, 3.3}, Sigma: 1.0 / 3}
	sc.Problem.T0 = 0.1 + 0.2
	sc, _ = sc.Normalize()
	if err := st.SaveRecord(Record{View: sc.View("n1-sess-000002", 0, now), Problem: sc.Problem, Options: sc.Options}); err != nil {
		t.Fatal(err)
	}
	recs, _, err = st.Records()
	if err != nil || len(recs) != 2 {
		t.Fatalf("records %+v, %v", recs, err)
	}
	if got, err := recs[1].Scenario(); err != nil || got != sc {
		t.Fatalf("record → scenario %+v, %v; want %+v", got, err, sc)
	}
}

// TestLandSegment pins how a finished segment becomes durable: its final
// state is the session's checkpoint at the segment's end, stamped with the
// session's lineage, at the simulated time the run reached; retention
// prunes the oldest; the hash is the checkpoint's own; and a run with no
// final state lands nothing.
func TestLandSegment(t *testing.T) {
	st, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	sc, _ := testScenario(20, 5).Normalize()
	sc.Retain = 2
	r, err := core.New(sc.Kind)
	if err != nil {
		t.Fatal(err)
	}
	p := sc.Problem
	p.Steps = sc.Segment
	var hash string
	for done := int64(5); done <= 20; done += 5 {
		res, err := r.Run(p, sc.Options)
		if err != nil {
			t.Fatal(err)
		}
		var f *grid.Field
		var t1 float64
		if f, t1, hash, err = st.LandSegment(sc, p, res, done); err != nil {
			t.Fatal(err)
		}
		np, _ := p.Normalize()
		if want := np.T0 + np.Nu*float64(np.Steps); t1 != want || t1 <= p.T0 {
			t.Fatalf("segment ending at %d stands at t=%v, want %v", done, t1, want)
		}
		p.Initial, p.T0 = f, t1
	}
	if steps := st.Steps(sc.Fingerprint()); len(steps) != 2 || steps[0] != 15 || steps[1] != 20 {
		t.Fatalf("retained %v, want [15 20] (retain 2)", steps)
	}
	meta, f, err := st.LoadCheckpoint(sc.Fingerprint(), 20)
	if err != nil {
		t.Fatal(err)
	}
	if meta.StepsDone != 20 || meta.Fingerprint != sc.Fingerprint() || meta.Options != sc.Options.Canonical() {
		t.Fatalf("landed meta %+v lacks the session's lineage", meta)
	}
	if got := checkpoint.FieldHash(f); got != hash {
		t.Fatalf("landed hash %s, checkpoint on disk hashes to %s", hash, got)
	}
	if _, _, _, err := st.LandSegment(sc, p, &core.Result{}, 25); err == nil {
		t.Fatal("a result without a final state landed")
	}
}
