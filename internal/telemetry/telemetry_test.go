package telemetry

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"time"
)

// base is an arbitrary fixed instant so tests are deterministic.
var base = time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)

func TestWindowCountsAndRates(t *testing.T) {
	w := NewWindow(10*time.Second, time.Second, nil)
	for i := 0; i < 5; i++ {
		w.Observe(base.Add(time.Duration(i)*time.Second), 2.0)
	}
	s := w.Stats(base.Add(4 * time.Second))
	if s.Count != 5 || s.Sum != 10 {
		t.Fatalf("count=%d sum=%g, want 5/10", s.Count, s.Sum)
	}
	if s.Mean != 2 || s.Max != 2 {
		t.Fatalf("mean=%g max=%g, want 2/2", s.Mean, s.Max)
	}
	if s.WindowSec != 10 {
		t.Fatalf("window=%g, want 10", s.WindowSec)
	}
	if got := s.PerSec; math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("per_sec=%g, want 0.5", got)
	}
	if got := s.SumPerSec; math.Abs(got-1.0) > 1e-12 {
		t.Fatalf("sum_per_sec=%g, want 1.0", got)
	}
}

func TestWindowRollOff(t *testing.T) {
	w := NewWindow(4*time.Second, time.Second, nil)
	w.Observe(base, 1)
	w.Observe(base.Add(time.Second), 1)
	// Both observations inside the window.
	if s := w.Stats(base.Add(2 * time.Second)); s.Count != 2 {
		t.Fatalf("count=%d, want 2", s.Count)
	}
	// Advance so the first observation's bucket has aged out.
	if s := w.Stats(base.Add(4 * time.Second)); s.Count != 1 {
		t.Fatalf("after roll-off count=%d, want 1", s.Count)
	}
	// Far future: everything aged out, even without new writes.
	if s := w.Stats(base.Add(time.Hour)); s.Count != 0 {
		t.Fatalf("stale count=%d, want 0", s.Count)
	}
	// New write reuses a rotated frame; old content must not leak in.
	w.Observe(base.Add(8*time.Second), 7)
	s := w.Stats(base.Add(8 * time.Second))
	if s.Count != 1 || s.Sum != 7 {
		t.Fatalf("reused frame count=%d sum=%g, want 1/7", s.Count, s.Sum)
	}
}

// TestWindowTotalsSurviveRollOver: the lifetime half of a window is fed by
// the same Observe as the ring and never ages: after the ring has rolled
// over several times the windowed view holds only the newest observations
// while Total, Stats.Total* and the cumulative buckets hold all of them.
func TestWindowTotalsSurviveRollOver(t *testing.T) {
	le := []float64{1, 4}
	w := NewWindow(4*time.Second, time.Second, []float64{1, 2, 4, 8})
	var sum float64
	for i := 0; i < 20; i++ { // five times round a four-frame ring
		v := float64(i % 10) // 0..9: 4 at or below 1, 10 at or below 4, 2 above 8
		w.Observe(base.Add(time.Duration(i)*time.Second), v)
		sum += v
	}
	s := w.Stats(base.Add(19 * time.Second))
	if s.Count != 4 || s.Sum != 6+7+8+9 {
		t.Fatalf("windowed count/sum = %d/%g, want the last four (4/30)", s.Count, s.Sum)
	}
	if s.TotalCount != 20 || s.TotalSum != sum {
		t.Fatalf("Stats totals = %d/%g, want 20/%g", s.TotalCount, s.TotalSum, sum)
	}
	if n, total := w.Total(); n != 20 || total != sum {
		t.Fatalf("Total() = %d/%g, want 20/%g", n, total, sum)
	}
	if got, total := w.Cumulative(le); !reflect.DeepEqual(got, []uint64{4, 10, 20}) || total != sum {
		t.Fatalf("Cumulative(%v) = %v, %g, want [4 10 20], %g", le, got, total, sum)
	}
	// Long after the last write the ring is empty and the totals stand.
	if s := w.Stats(base.Add(time.Hour)); s.Count != 0 || s.TotalCount != 20 {
		t.Fatalf("stale stats = %+v, want an empty window over 20 lifetime observations", s)
	}
	// A counter-only window is a cumulative counter.
	c := NewWindow(2*time.Second, time.Second, nil)
	for i := 0; i < 7; i++ {
		c.Observe(base.Add(time.Duration(i)*time.Second), 1)
	}
	if n, _ := c.Total(); n != 7 {
		t.Fatalf("counter total = %d, want 7", n)
	}
	if got, _ := c.Cumulative(nil); len(got) != 1 || got[0] != 7 {
		t.Fatalf("counter Cumulative = %v, want [7]", got)
	}
}

func TestWindowQuantiles(t *testing.T) {
	// Uniform values 1..100 with linear buckets: quantiles should land
	// near their exact ranks (within one bucket width).
	w := NewWindow(10*time.Second, time.Second, LinearBounds(100, 20))
	for i := 1; i <= 100; i++ {
		w.Observe(base, float64(i))
	}
	s := w.Stats(base)
	if math.Abs(s.P50-50) > 5 {
		t.Fatalf("p50=%g, want ~50", s.P50)
	}
	if math.Abs(s.P95-95) > 5 {
		t.Fatalf("p95=%g, want ~95", s.P95)
	}
	if math.Abs(s.P99-99) > 5 {
		t.Fatalf("p99=%g, want ~99", s.P99)
	}
	if s.P50 > s.P95 || s.P95 > s.P99 {
		t.Fatalf("quantiles not monotone: %g %g %g", s.P50, s.P95, s.P99)
	}
}

func TestWindowQuantileOverflowBucket(t *testing.T) {
	// Values beyond the last bound land in the overflow bucket, whose
	// interpolation is capped by the observed max.
	w := NewWindow(10*time.Second, time.Second, LinearBounds(1, 4))
	for i := 0; i < 10; i++ {
		w.Observe(base, 50)
	}
	s := w.Stats(base)
	if s.P99 > 50 || s.P99 < 1 {
		t.Fatalf("p99=%g, want within (1, 50]", s.P99)
	}
}

func TestBoundsHelpers(t *testing.T) {
	d := DurationBounds()
	if !sort.Float64sAreSorted(d) {
		t.Fatal("DurationBounds not sorted")
	}
	if d[0] != 1e-5 || d[len(d)-1] < 100 {
		t.Fatalf("DurationBounds range [%g, %g] unexpected", d[0], d[len(d)-1])
	}
	l := LinearBounds(1, 4)
	want := []float64{0.25, 0.5, 0.75, 1}
	for i, b := range l {
		if math.Abs(b-want[i]) > 1e-12 {
			t.Fatalf("LinearBounds[%d]=%g, want %g", i, b, want[i])
		}
	}
}

func TestHubPublishSubscribe(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe(4)
	defer cancel()
	h.Publish(Event{Name: "job", Data: []byte(`{"id":"job-000001"}`)})
	ev := <-ch
	if ev.Name != "job" {
		t.Fatalf("event name = %q, want job", ev.Name)
	}
	cancel()
	cancel() // idempotent
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after cancel")
	}
}

func TestHubDropsWhenFull(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe(1)
	defer cancel()
	done := make(chan struct{})
	go func() {
		h.Publish(Event{Name: "a"})
		h.Publish(Event{Name: "b"}) // buffer full: dropped, not blocked
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a full subscriber")
	}
	if ev := <-ch; ev.Name != "a" {
		t.Fatalf("first event %q, want a", ev.Name)
	}
	select {
	case ev := <-ch:
		t.Fatalf("event %q was queued past a full buffer", ev.Name)
	default:
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub()
	ch, cancel := h.Subscribe(1)
	h.Close()
	if _, ok := <-ch; ok {
		t.Fatal("channel not closed after hub Close")
	}
	cancel() // must not panic after Close
	// Subscribing to a closed hub yields an already-closed channel.
	ch2, cancel2 := h.Subscribe(1)
	defer cancel2()
	if _, ok := <-ch2; ok {
		t.Fatal("subscribe after Close returned open channel")
	}
	h.Close() // idempotent
}
