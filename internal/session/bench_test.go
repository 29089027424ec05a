package session

import (
	"testing"
	"time"

	"repro/internal/core"
)

// benchSession builds a session without a manager: the status path under
// benchmark touches only the Session itself.
func benchSession() *Session {
	sc := Scenario{Kind: core.BulkSync, Problem: core.DefaultProblem(32, 100), Segment: 25, Retain: 4}
	return &Session{
		id: "n1-sess-000042", sc: sc, fp: sc.Fingerprint(),
		state: StateRunning, doneSteps: 75, segments: 3, resumes: 1,
		created: time.Unix(1, 0), updated: time.Unix(2, 0),
		fieldHash: "0123456789abcdef", lastCkpt: 75, lastGF: 1.5,
	}
}

// TestSessionStatusAllocationBounded guards the status hot path: a View
// snapshot is a single struct copy under the session mutex, nothing more.
// BENCH_guards.json bounds its time; this pins its allocations.
func TestSessionStatusAllocationBounded(t *testing.T) {
	s := benchSession()
	allocs := testing.AllocsPerRun(1000, func() {
		v := s.View()
		if v.DoneSteps != 75 {
			t.Fatal("wrong view")
		}
	})
	if allocs > 0 {
		t.Fatalf("session status allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkSessionStatus is the GET /v1/sessions/{id} hot path with the
// HTTP layer peeled off.
func BenchmarkSessionStatus(b *testing.B) {
	s := benchSession()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := s.View()
		if v.DoneSteps != 75 {
			b.Fatal("wrong view")
		}
	}
}

// TestWarmerIdleAllocationFree guards the detector's idle path: an
// observation that extends no progression (steady repeated traffic) must
// not allocate — the warmer rides every interactive submission.
func TestWarmerIdleAllocationFree(t *testing.T) {
	w := NewWarmer()
	fields := []float64{32, 100, 2, 4, 0, 0, 0, 0, 0, 0}
	w.Observe("sim|bulk", fields) // seed the tracks
	allocs := testing.AllocsPerRun(1000, func() {
		if p := w.Observe("sim|bulk", fields); p != nil {
			t.Fatal("idle observation predicted")
		}
	})
	if allocs > 0 {
		t.Fatalf("idle warmer observation allocates %.1f times per call, want 0", allocs)
	}
}

// BenchmarkWarmerIdle is the per-submission detector cost when no sweep is
// progressing; BENCH_guards.json bounds it.
func BenchmarkWarmerIdle(b *testing.B) {
	w := NewWarmer()
	fields := []float64{32, 100, 2, 4, 0, 0, 0, 0, 0, 0}
	w.Observe("sim|bulk", fields)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if p := w.Observe("sim|bulk", fields); p != nil {
			b.Fatal("idle observation predicted")
		}
	}
}
