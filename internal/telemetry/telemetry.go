// Package telemetry provides the time-series primitives behind the advectd
// endpoints (/metrics, /v1/stats and /v1/stream): fixed-size ring-buffer
// windows whose buckets carry streaming histograms, so the service can
// report counts, rates, means, and p50/p95/p99 quantiles over the last N
// seconds without ever storing individual observations — and, from the
// lifetime totals the same windows keep, its cumulative counters and
// histograms.
//
// The hot path is deliberately boring: Observe touches one preallocated
// ring frame and the lifetime frame under a mutex and allocates nothing
// (asserted by TestWindowObserveAllocatesNothing and the ci.sh ns gate
// against BENCH_guards.json).
package telemetry

import (
	"sort"
	"sync"
	"time"
)

// Window is the one accumulator a quantity has. Its rolling half is a ring
// of equal-width time buckets, each accumulating a count, a sum, a max, and
// (when bounds are configured) a fixed-bucket value histogram; observations
// older than the window fall out as the ring rotates. Its lifetime half is
// one more frame that never rotates, fed by the same Observe, so a
// cumulative counter is a window's Total and a Prometheus histogram is its
// Cumulative buckets. Nothing is ever reallocated after construction.
type Window struct {
	mu     sync.Mutex
	width  int64     // bucket width in nanoseconds
	bounds []float64 // histogram upper bounds; empty = counter-only
	frames []frame
	total  frame    // every observation since construction (slot, max unused)
	merged []uint64 // scratch for quantile merging, reused under mu
}

type frame struct {
	slot   int64 // which time bucket this frame currently holds (-1 = unused)
	count  uint64
	sum    float64
	max    float64
	counts []uint64 // len(bounds)+1; last is the overflow bucket
}

// NewWindow builds a window spanning roughly span, divided into buckets
// of width bucket (clamped to at least one bucket of at least 1ms). bounds,
// which must be sorted ascending, enables quantile estimation; nil bounds
// makes a counter-only window (Sum/Count/Max but no quantiles).
func NewWindow(span, bucket time.Duration, bounds []float64) *Window {
	if bucket < time.Millisecond {
		bucket = time.Millisecond
	}
	n := int(span / bucket)
	if n < 1 {
		n = 1
	}
	w := &Window{
		width:  int64(bucket),
		bounds: bounds,
		frames: make([]frame, n),
		merged: make([]uint64, len(bounds)+1),
	}
	// One backing slab for every frame's histogram counts, the lifetime
	// frame's last.
	k := len(bounds) + 1
	slab := make([]uint64, (n+1)*k)
	for i := range w.frames {
		w.frames[i].slot = -1
		w.frames[i].counts = slab[i*k : (i+1)*k]
	}
	w.total.counts = slab[n*k:]
	return w
}

// Observe records one value at the given time, in the ring frame of that
// instant and in the lifetime totals, allocation-free.
func (w *Window) Observe(now time.Time, v float64) {
	slot := now.UnixNano() / w.width
	b := sort.SearchFloat64s(w.bounds, v) // 0 in a counter-only window
	w.mu.Lock()
	f := &w.frames[int(slot%int64(len(w.frames)))]
	if f.slot != slot {
		f.slot = slot
		f.count, f.sum, f.max = 0, 0, 0
		for i := range f.counts {
			f.counts[i] = 0
		}
	}
	f.count++
	f.sum += v
	if v > f.max {
		f.max = v
	}
	f.counts[b]++
	w.total.count++
	w.total.sum += v
	w.total.counts[b]++
	w.mu.Unlock()
}

// Total returns the lifetime count and sum: every observation since
// construction, the ones the ring has rolled past included.
func (w *Window) Total() (count uint64, sum float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.total.count, w.total.sum
}

// Cumulative returns the lifetime histogram in Prometheus form, read under
// one lock: for each upper bound in le (each one of the window's bounds) how
// many observations were at or below it, then the +Inf entry, the lifetime
// count; and the lifetime sum.
func (w *Window) Cumulative(le []float64) (counts []uint64, sum float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	counts = make([]uint64, 0, len(le)+1)
	for _, l := range le {
		var cum uint64
		for _, c := range w.total.counts[:sort.SearchFloat64s(w.bounds, l)+1] {
			cum += c
		}
		counts = append(counts, cum)
	}
	return append(counts, w.total.count), w.total.sum
}

// Stats is the aggregate view of one window at one instant.
type Stats struct {
	WindowSec float64 `json:"window_sec"`
	Count     uint64  `json:"count"`
	Sum       float64 `json:"sum"`
	Mean      float64 `json:"mean"`
	Max       float64 `json:"max"`
	// PerSec is Count over the window span; SumPerSec is Sum over it.
	// Both read low while the service is younger than the window.
	PerSec    float64 `json:"per_sec"`
	SumPerSec float64 `json:"sum_per_sec"`
	P50       float64 `json:"p50,omitempty"`
	P95       float64 `json:"p95,omitempty"`
	P99       float64 `json:"p99,omitempty"`
	// TotalCount and TotalSum are lifetime totals, not windowed: the
	// cumulative counter and the lifetime mean the same series yields.
	TotalCount uint64  `json:"total_count"`
	TotalSum   float64 `json:"total_sum"`
}

// Stats aggregates every bucket still inside the window at now. Sums and
// counts are exact; quantiles are estimated by linear interpolation inside
// the matching histogram bucket (the overflow bucket interpolates toward
// the window max).
func (w *Window) Stats(now time.Time) Stats {
	cur := now.UnixNano() / w.width
	oldest := cur - int64(len(w.frames)) + 1

	w.mu.Lock()
	defer w.mu.Unlock()
	s := Stats{TotalCount: w.total.count, TotalSum: w.total.sum}
	s.WindowSec = float64(w.width) * float64(len(w.frames)) / float64(time.Second)
	for i := range w.merged {
		w.merged[i] = 0
	}
	for i := range w.frames {
		f := &w.frames[i]
		if f.slot < oldest || f.slot > cur {
			continue
		}
		s.Count += f.count
		s.Sum += f.sum
		if f.max > s.Max {
			s.Max = f.max
		}
		for j, c := range f.counts {
			w.merged[j] += c
		}
	}
	if s.Count > 0 {
		s.Mean = s.Sum / float64(s.Count)
	}
	s.PerSec = float64(s.Count) / s.WindowSec
	s.SumPerSec = s.Sum / s.WindowSec
	if len(w.bounds) > 0 && s.Count > 0 {
		s.P50 = w.quantile(0.50, s.Count, s.Max)
		s.P95 = w.quantile(0.95, s.Count, s.Max)
		s.P99 = w.quantile(0.99, s.Count, s.Max)
	}
	return s
}

// quantile walks the merged histogram (already populated under mu by Stats)
// to the bucket containing rank q·count and interpolates inside it.
func (w *Window) quantile(q float64, count uint64, max float64) float64 {
	rank := q * float64(count)
	var cum float64
	for i, c := range w.merged {
		if c == 0 {
			continue
		}
		next := cum + float64(c)
		if next >= rank {
			var lo float64
			if i > 0 {
				lo = w.bounds[i-1]
			}
			hi := max
			if i < len(w.bounds) && w.bounds[i] < hi {
				hi = w.bounds[i]
			}
			if hi < lo {
				hi = lo
			}
			return lo + (hi-lo)*(rank-cum)/float64(c)
		}
		cum = next
	}
	return max
}

// DurationBounds returns a 1-2-5 ladder of upper bounds in seconds from
// 10µs to 100s, a histogram layout wide enough for both sub-millisecond
// predict jobs and multi-second simulations.
func DurationBounds() []float64 {
	var b []float64
	for decade := 1e-5; decade < 1e3; decade *= 10 {
		b = append(b, decade, 2*decade, 5*decade)
	}
	return b
}

// LinearBounds returns n evenly spaced upper bounds ending at max — the
// right layout for bounded small integers such as queue depth, or for
// fractions in [0, 1].
func LinearBounds(max float64, n int) []float64 {
	if n < 1 {
		n = 1
	}
	b := make([]float64, n)
	for i := range b {
		b[i] = max * float64(i+1) / float64(n)
	}
	return b
}
