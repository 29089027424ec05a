package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestMergeExactFields(t *testing.T) {
	a := Stats{WindowSec: 60, Count: 10, Sum: 30, Max: 9, P50: 2, P95: 8, P99: 9}
	b := Stats{WindowSec: 60, Count: 30, Sum: 50, Max: 4, P50: 1, P95: 3, P99: 4}
	m := Merge(a, b)
	if m.Count != 40 {
		t.Errorf("Count = %d, want 40", m.Count)
	}
	if m.Sum != 80 {
		t.Errorf("Sum = %v, want 80", m.Sum)
	}
	if m.Max != 9 {
		t.Errorf("Max = %v, want 9", m.Max)
	}
	if want := 2.0; m.Mean != want {
		t.Errorf("Mean = %v, want %v", m.Mean, want)
	}
	if want := 40.0 / 60; math.Abs(m.PerSec-want) > 1e-12 {
		t.Errorf("PerSec = %v, want %v", m.PerSec, want)
	}
	if want := 80.0 / 60; math.Abs(m.SumPerSec-want) > 1e-12 {
		t.Errorf("SumPerSec = %v, want %v", m.SumPerSec, want)
	}
	// Count-weighted quantile estimates: a carries 1/4 of the weight.
	if want := 0.25*2 + 0.75*1; math.Abs(m.P50-want) > 1e-12 {
		t.Errorf("P50 = %v, want %v", m.P50, want)
	}
	if want := 0.25*8 + 0.75*3; math.Abs(m.P95-want) > 1e-12 {
		t.Errorf("P95 = %v, want %v", m.P95, want)
	}
}

func TestMergeZeroSides(t *testing.T) {
	a := Stats{WindowSec: 60, Count: 5, Sum: 10, Max: 4, P50: 2}
	if got := Merge(a, Stats{}); got != a {
		t.Errorf("Merge(a, zero) = %+v, want a unchanged", got)
	}
	if got := Merge(Stats{}, a); got != a {
		t.Errorf("Merge(zero, a) = %+v, want a unchanged", got)
	}
	if got := Merge(Stats{}, Stats{}); got != (Stats{}) {
		t.Errorf("Merge(zero, zero) = %+v, want zero", got)
	}
}

func TestMergeMismatchedWindows(t *testing.T) {
	a := Stats{WindowSec: 30, Count: 10, Sum: 30}
	b := Stats{WindowSec: 60, Count: 10, Sum: 30}
	m := Merge(a, b)
	if m.WindowSec != 60 {
		t.Errorf("WindowSec = %v, want the wider 60", m.WindowSec)
	}
	if want := 20.0 / 60; math.Abs(m.PerSec-want) > 1e-12 {
		t.Errorf("PerSec = %v, want conservative %v", m.PerSec, want)
	}
}

// TestMergeMatchesCombinedWindow: merging two live windows' snapshots
// agrees with one window that saw every observation — the invariant
// federated /v1/stats relies on. Count and Max are exact; Sum and Mean
// only to rounding, since the split changes the summation order.
func TestMergeMatchesCombinedWindow(t *testing.T) {
	span, bucket := time.Minute, time.Second
	bounds := DurationBounds()
	wa := NewWindow(span, bucket, bounds)
	wb := NewWindow(span, bucket, bounds)
	combined := NewWindow(span, bucket, bounds)
	now := time.Now()
	for i := 0; i < 500; i++ {
		v := float64(i%37) / 100
		at := now.Add(time.Duration(i) * 10 * time.Millisecond)
		combined.Observe(at, v)
		if i%2 == 0 {
			wa.Observe(at, v)
		} else {
			wb.Observe(at, v)
		}
	}
	at := now.Add(6 * time.Second)
	m := Merge(wa.Stats(at), wb.Stats(at))
	c := combined.Stats(at)
	if m.Count != c.Count || m.Max != c.Max {
		t.Errorf("merged (count=%d max=%v) != combined (count=%d max=%v)",
			m.Count, m.Max, c.Count, c.Max)
	}
	if math.Abs(m.Sum-c.Sum) > 1e-9*math.Abs(c.Sum) {
		t.Errorf("Sum: merged %v != combined %v", m.Sum, c.Sum)
	}
	if math.Abs(m.Mean-c.Mean) > 1e-12 {
		t.Errorf("Mean: merged %v != combined %v", m.Mean, c.Mean)
	}
	// Quantiles are estimates; with an alternating (identical) split they
	// must land close to the combined window's own estimate.
	if c.P95 > 0 && math.Abs(m.P95-c.P95)/c.P95 > 0.15 {
		t.Errorf("P95: merged %v vs combined %v (>15%% off on an even split)", m.P95, c.P95)
	}
}

// TestMergeAddsLifetimeTotals: the lifetime halves add whether or not a
// side still has anything inside its window — a node whose jobs have all
// aged out still contributes the jobs it ever ran to the cluster counter.
func TestMergeAddsLifetimeTotals(t *testing.T) {
	live := Stats{WindowSec: 60, Count: 2, Sum: 4, TotalCount: 10, TotalSum: 20}
	aged := Stats{WindowSec: 60, TotalCount: 7, TotalSum: 3.5}
	for _, m := range []Stats{Merge(live, aged), Merge(aged, live)} {
		if m.TotalCount != 17 || m.TotalSum != 23.5 {
			t.Errorf("totals = %d/%v, want 17/23.5", m.TotalCount, m.TotalSum)
		}
		if m.Count != 2 || m.Sum != 4 {
			t.Errorf("windowed half = %d/%v, want the live side's 2/4", m.Count, m.Sum)
		}
	}
	other := Stats{WindowSec: 60, Count: 1, Sum: 1, TotalCount: 1, TotalSum: 1}
	if m := Merge(live, other); m.TotalCount != 11 || m.TotalSum != 21 || m.Count != 3 {
		t.Errorf("two live sides: %+v", m)
	}
	if m := Merge(aged, aged); m.TotalCount != 14 || m.Count != 0 {
		t.Errorf("two aged sides: %+v", m)
	}
}
