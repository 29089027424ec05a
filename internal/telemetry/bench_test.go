package telemetry

import (
	"testing"
	"time"
)

// Observe must stay allocation-free and under its ns/op bound — ci.sh
// enforces both against BENCH_guards.json.

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
}

// TestHubPublishAllocatesNothing: every job transition and stats tick is
// published to each open stream; delivery to a live subscriber must not
// allocate.
func TestHubPublishAllocatesNothing(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe(1)
	defer cancel()
	ev := Event{Name: "job", Data: []byte(`{"id":"job-000001"}`)}
	allocs := testing.AllocsPerRun(1000, func() {
		h.Publish(ev)
		<-ch
	})
	if allocs != 0 {
		t.Fatalf("Publish allocated %.1f per call, want 0", allocs)
	}
}
