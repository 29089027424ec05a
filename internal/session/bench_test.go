package session

import "testing"

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
