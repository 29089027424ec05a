package service

import (
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// testTelemetry is a node's windows with a 60 s span starting at start.
func testTelemetry(start time.Time) *Telemetry {
	return NewTelemetry(start, time.Minute, 16)
}

func testSnapshot(m *Telemetry, at time.Time) Snapshot {
	return m.Snapshot(at,
		QueueGauges{Depth: 1, Capacity: 4},
		WorkerGauges{Busy: 1, Total: 2, Utilization: 0.5},
		CacheStats{Size: 3, Capacity: 8, Hits: 5, Misses: 7, Evictions: 1})
}

// TestMetricsTextMatchesParent is the tentpole's compatibility proof: a
// scripted history of outcomes and latencies — spread over ten minutes, so
// most of it has long rolled out of the 60 s windows — renders the /metrics
// text recorded from the commit before the windows took over from
// service.Metrics, byte for byte, every family but uptime_seconds and the
// go_* process block. The JSON document round-trips into Snapshot as before.
func TestMetricsTextMatchesParent(t *testing.T) {
	want, err := os.ReadFile("testdata/metrics_parent.golden")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Unix(1000, 0)
	m := testTelemetry(start)
	tick := 0
	next := func() time.Time { tick++; return start.Add(time.Duration(tick) * 10 * time.Second) }
	for _, c := range []struct {
		typ, outcome string
		n            int
	}{
		{TypeSimulate, outcomeSubmitted, 7}, {TypeSimulate, outcomeCached, 1}, {TypeSimulate, outcomeDone, 4},
		{TypeSimulate, outcomeFailed, 1}, {TypeSimulate, outcomeCancelled, 1}, {TypeSimulate, outcomeRejected, 2},
		{TypePredict, outcomeSubmitted, 4}, {TypePredict, outcomeCached, 2}, {TypePredict, outcomeDone, 2},
		{TypeExperiment, outcomeSubmitted, 1}, {TypeExperiment, outcomeDone, 1},
		{typeSegment, outcomeDone, 3}, {typeSegment, outcomeCancelled, 1},
	} {
		for i := 0; i < c.n; i++ {
			m.Count(next(), c.typ, c.outcome)
		}
	}
	for _, l := range []struct {
		typ string
		d   time.Duration
	}{
		{TypeSimulate, 400 * time.Microsecond}, {TypeSimulate, 25 * time.Millisecond},
		{TypeSimulate, 1500 * time.Millisecond}, {TypeSimulate, 26 * time.Millisecond},
		{TypePredict, 200 * time.Microsecond}, {TypePredict, 500 * time.Microsecond},
		{TypeExperiment, 60 * time.Second},
		{typeSegment, 7 * time.Millisecond}, {typeSegment, 500 * time.Second}, {typeSegment, 1000 * time.Second},
	} {
		m.RecordExec(next(), l.typ, l.d)
	}
	snap := testSnapshot(m, start.Add(90*time.Second))
	var got strings.Builder
	for _, line := range strings.SplitAfter(snap.Prometheus(), "\n") {
		if !strings.Contains(line, "advectd_uptime_seconds") && !strings.Contains(line, "advectd_go_") {
			got.WriteString(line)
		}
	}
	if got.String() != string(want) {
		t.Errorf("/metrics text differs from the parent commit's\n--- got\n%s--- want\n%s", got.String(), want)
	}
	if snap.UptimeSec != 90 {
		t.Errorf("uptime = %g, want 90", snap.UptimeSec)
	}
	enc, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(enc, &back); err != nil || !reflect.DeepEqual(back, snap) {
		t.Errorf("?format=json does not round-trip into Snapshot (err %v)", err)
	}
	// The same series, read as windows: /v1/stats carries the lifetime
	// totals /metrics shows and a shed window that is the rejected counter.
	st := m.Stats(start.Add(time.Duration(tick)*10*time.Second), QueueGauges{}, WorkerGauges{})
	if e := st.Exec[TypeSimulate]; e.TotalCount != 4 || e.TotalSum != snap.Latency[TypeSimulate].Sum {
		t.Errorf("exec.simulate totals %d/%g, want /metrics' 4/%g", e.TotalCount, e.TotalSum, snap.Latency[TypeSimulate].Sum)
	}
	if st.Shed.TotalCount != snap.Jobs[TypeSimulate][outcomeRejected] {
		t.Errorf("shed total %d, want the rejected counter %d", st.Shed.TotalCount, snap.Jobs[TypeSimulate][outcomeRejected])
	}
}

// TestPrometheusHelpAndTypeLines checks that every exported series carries
// its HELP and TYPE metadata, with the advectd_ prefix throughout.
func TestPrometheusHelpAndTypeLines(t *testing.T) {
	start := time.Unix(1000, 0)
	m := testTelemetry(start)
	m.Count(start, TypeSimulate, outcomeSubmitted)
	m.Count(start, TypeSimulate, outcomeDone)
	m.RecordExec(start, TypeSimulate, 3*time.Millisecond)
	text := testSnapshot(m, start.Add(time.Minute)).Prometheus()

	series := map[string]string{
		"advectd_uptime_seconds":       "gauge",
		"advectd_queue_depth":          "gauge",
		"advectd_queue_capacity":       "gauge",
		"advectd_workers_busy":         "gauge",
		"advectd_workers_total":        "gauge",
		"advectd_worker_utilization":   "gauge",
		"advectd_cache_size":           "gauge",
		"advectd_cache_capacity":       "gauge",
		"advectd_cache_events_total":   "counter",
		"advectd_jobs_total":           "counter",
		"advectd_job_duration_seconds": "histogram",
	}
	for name, typ := range series {
		if !strings.Contains(text, "# HELP "+name+" ") {
			t.Errorf("missing HELP line for %s", name)
		}
		if !strings.Contains(text, "# TYPE "+name+" "+typ+"\n") {
			t.Errorf("missing TYPE %s line for %s", typ, name)
		}
	}
	for _, want := range []string{
		"advectd_uptime_seconds 60\n",
		"advectd_queue_depth 1\n",
		"advectd_worker_utilization 0.5\n",
		`advectd_cache_events_total{event="hit"} 5`,
		`advectd_jobs_total{type="simulate",outcome="done"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	// No series escapes the prefix.
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.HasPrefix(line, "advectd_") {
			t.Errorf("unprefixed series line %q", line)
		}
	}
}

// TestPrometheusLabelEscaping checks that label values with quotes,
// backslashes, and newlines render in escaped form (the %q escapes for
// these characters coincide with the Prometheus text-format escapes).
func TestPrometheusLabelEscaping(t *testing.T) {
	text := Snapshot{Jobs: map[string]map[string]uint64{"we\"ird\\type\nx": {outcomeDone: 1}}}.Prometheus()
	want := `advectd_jobs_total{type="we\"ird\\type\nx",outcome="done"} 1`
	if !strings.Contains(text, want) {
		t.Fatalf("escaped label missing; want %q in:\n%s", want, text)
	}
	if strings.Contains(text, "type=\"we\"ird") {
		t.Fatal("raw quote leaked into a label value")
	}
}

// TestPrometheusHistogramBuckets checks the histogram contract: cumulative
// non-decreasing bucket counts, a trailing +Inf bucket equal to the
// observation count, and consistent sum/count series.
func TestPrometheusHistogramBuckets(t *testing.T) {
	m := testTelemetry(time.Unix(0, 0))
	durations := []time.Duration{
		200 * time.Microsecond, // first bucket (0.0005)
		3 * time.Millisecond,   // 0.005
		3 * time.Millisecond,   // 0.005 again
		40 * time.Second,       // 60
		500 * time.Second,      // +Inf only
	}
	for _, d := range durations {
		m.RecordExec(time.Unix(0, 0), TypePredict, d)
	}
	text := testSnapshot(m, time.Unix(1, 0)).Prometheus()

	var les []string
	var counts []uint64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, `advectd_job_duration_seconds_bucket{type="predict",le="`) {
			continue
		}
		rest := strings.TrimPrefix(line, `advectd_job_duration_seconds_bucket{type="predict",le="`)
		le, val, ok := strings.Cut(rest, `"} `)
		if !ok {
			t.Fatalf("malformed bucket line %q", line)
		}
		n, err := strconv.ParseUint(val, 10, 64)
		if err != nil {
			t.Fatalf("bucket count in %q: %v", line, err)
		}
		les = append(les, le)
		counts = append(counts, n)
	}
	if len(counts) != len(latencyBuckets)+1 {
		t.Fatalf("got %d buckets, want %d", len(counts), len(latencyBuckets)+1)
	}
	if les[len(les)-1] != "+Inf" {
		t.Fatalf("last bucket le = %q, want +Inf", les[len(les)-1])
	}
	for i := 1; i < len(counts); i++ {
		if counts[i] < counts[i-1] {
			t.Fatalf("bucket counts not cumulative at le=%s: %v", les[i], counts)
		}
	}
	if got := counts[len(counts)-1]; got != uint64(len(durations)) {
		t.Fatalf("+Inf bucket = %d, want %d", got, len(durations))
	}
	// Upper bounds themselves are sorted.
	for i := 1; i < len(les)-1; i++ {
		a, _ := strconv.ParseFloat(les[i-1], 64)
		b, _ := strconv.ParseFloat(les[i], 64)
		if b <= a {
			t.Fatalf("bucket bounds not increasing: %v", les)
		}
	}
	if !strings.Contains(text, `advectd_job_duration_seconds_count{type="predict"} 5`) {
		t.Fatalf("count series wrong:\n%s", text)
	}
	var sum float64
	for _, d := range durations {
		sum += d.Seconds()
	}
	sumLine := `advectd_job_duration_seconds_sum{type="predict"} ` +
		strconv.FormatFloat(sum, 'g', -1, 64)
	if !strings.Contains(text, sumLine) {
		t.Fatalf("sum series missing %q:\n%s", sumLine, text)
	}
}

// TestHistogramSnapshotCumulative pins the JSON view of the histogram — an
// exec window's lifetime half — to the same cumulative semantics as the
// text exposition.
func TestHistogramSnapshotCumulative(t *testing.T) {
	m := testTelemetry(time.Unix(0, 0))
	h := m.exec[TypePredict]
	h.Observe(time.Unix(0, 0), 0.0001)
	h.Observe(time.Unix(0, 0), 0.0001)
	h.Observe(time.Unix(0, 0), 1e6) // beyond the last bound
	s := histogramSnapshot(h)
	if len(s.Buckets) != len(latencyBuckets)+1 {
		t.Fatalf("bucket count %d", len(s.Buckets))
	}
	if s.Buckets[0].Count != 2 {
		t.Fatalf("first bucket %d, want 2", s.Buckets[0].Count)
	}
	last := s.Buckets[len(s.Buckets)-1]
	if last.LE != "+Inf" || last.Count != 3 {
		t.Fatalf("+Inf bucket %+v", last)
	}
	if s.Count != 3 {
		t.Fatalf("count %d", s.Count)
	}
}
