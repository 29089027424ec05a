package obs

import "testing"

// BenchmarkRecorderDisabled measures the cost instrumented code pays when
// tracing is off — the ci.sh overhead gate runs this with -benchmem and the
// allocation contract is asserted by TestDisabledRecorderAllocatesNothing.
// The loop mirrors one instrumented step: a bracketed span, a window clock
// read, and a direct Add.
func BenchmarkRecorderDisabled(b *testing.B) {
	var r *Recorder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := r.Begin(0, i, PhaseInterior, "whole")
		a.End()
		t0 := r.Clock()
		r.Add(0, i, PhaseMPIExchange, "x", t0, r.Clock())
	}
}

// BenchmarkRecorderEnabled is the enabled-path cost for comparison
// (BENCH_guards.json records both).
func BenchmarkRecorderEnabled(b *testing.B) {
	r := NewRecorder()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		a := r.Begin(0, i, PhaseInterior, "whole")
		a.End()
		t0 := r.Clock()
		r.Add(0, i, PhaseMPIExchange, "x", t0, r.Clock())
	}
}
