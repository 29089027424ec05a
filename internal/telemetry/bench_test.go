package telemetry

import (
	"testing"
	"time"
)

// The disabled (nil) window must stay effectively free and the enabled hot
// path allocation-free — both are enforced by ci.sh against
// BENCH_guards.json, mirroring the obs recorder gate.

func BenchmarkWindowDisabled(b *testing.B) {
	var w *Window
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Observe(now, 1.0)
	}
}

func BenchmarkWindowObserve(b *testing.B) {
	w := NewWindow(time.Minute, time.Second, DurationBounds())
	now := time.Now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Observe(now, float64(i%100)*1e-3)
	}
}

func BenchmarkWindowStats(b *testing.B) {
	w := NewWindow(time.Minute, time.Second, DurationBounds())
	now := time.Now()
	for i := 0; i < 10000; i++ {
		w.Observe(now, float64(i%100)*1e-3)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = w.Stats(now)
	}
}

func TestWindowObserveAllocatesNothing(t *testing.T) {
	w := NewWindow(time.Minute, time.Second, DurationBounds())
	now := time.Now()
	allocs := testing.AllocsPerRun(1000, func() {
		w.Observe(now, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f per call, want 0", allocs)
	}
	var disabled *Window
	allocs = testing.AllocsPerRun(1000, func() {
		disabled.Observe(now, 0.5)
	})
	if allocs != 0 {
		t.Fatalf("disabled Observe allocated %.1f per call, want 0", allocs)
	}
}
