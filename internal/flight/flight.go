// Package flight is the node-local black box: an always-on, bounded
// ring-buffer flight recorder plus the anomaly engine that watches the
// serving layer against the paper's analytic performance model.
//
// The recorder retains the last N events a node saw — every structured
// log record (via the tee slog.Handler; a job or session transition is its
// log line, entered once), span-log summaries of traced runs, and periodic
// stats snapshots — so when something goes wrong there is a recent history
// to read without having had verbose logging on. The engine judges the
// node's own rolling windows and per-job reports against configurable
// rules (latency spikes, shed bursts, straggler ranks, and
// model-vs-measured overlap drift against internal/perf); each firing
// appends a timestamped anomaly and freezes a snapshot of the ring at that
// instant. Add, which every job transition and log line pays, is
// allocation-free and gated in ci.sh against BENCH_guards.json.
package flight

import (
	"sync"
	"time"
)

// RecordKind tags what produced a ring entry.
type RecordKind string

const (
	// KindSpan is a traced job's span-log summary at completion.
	KindSpan RecordKind = "span"
	// KindStats is a periodic stats snapshot line from the sweep loop.
	KindStats RecordKind = "stats"
	// KindLog is a structured log record teed off the node's slog handler;
	// job and session lifecycle transitions and anomaly firings are these,
	// with the id lifted.
	KindLog RecordKind = "log"
)

// Record is one flight-recorder entry. Seq increases monotonically over
// the recorder's lifetime, so gaps in a snapshot reveal how much history
// the ring had already evicted.
type Record struct {
	Seq     uint64     `json:"seq"`
	Time    time.Time  `json:"time"`
	Kind    RecordKind `json:"kind"`
	Level   string     `json:"level,omitempty"`
	Msg     string     `json:"msg"`
	JobID   string     `json:"job_id,omitempty"`
	TraceID string     `json:"trace_id,omitempty"`
	Attrs   string     `json:"attrs,omitempty"`
}

// Snapshot is the ring's content at one instant, oldest record first.
type Snapshot struct {
	Taken time.Time `json:"taken"`
	// Reason names what froze the snapshot ("" for a live read).
	Reason string `json:"reason,omitempty"`
	// Dropped counts records the ring had already evicted before the
	// oldest one still present.
	Dropped uint64   `json:"dropped"`
	Records []Record `json:"records"`
}

// DefaultEvents sizes the ring when the caller names no size.
const DefaultEvents = 512

// DefaultFrozen bounds how many frozen snapshots a recorder retains;
// older freezes are evicted first.
const DefaultFrozen = 8

// Recorder is the bounded ring buffer.
type Recorder struct {
	mu     sync.Mutex
	ring   []Record
	next   uint64 // total records ever added
	frozen []Snapshot
}

// NewRecorder builds a recorder retaining the last events records
// (DefaultEvents when events <= 0).
func NewRecorder(events int) *Recorder {
	if events <= 0 {
		events = DefaultEvents
	}
	return &Recorder{ring: make([]Record, events)}
}

// Add appends one record, overwriting the oldest once the ring is full.
// The caller's Seq is ignored; the recorder assigns it.
func (r *Recorder) Add(rec Record) {
	r.mu.Lock()
	rec.Seq = r.next
	r.ring[int(r.next%uint64(len(r.ring)))] = rec
	r.next++
	r.mu.Unlock()
}

// Span records a traced job's span-log summary.
func (r *Recorder) Span(now time.Time, jobID, traceID, msg string) {
	r.Add(Record{Time: now, Kind: KindSpan, Msg: msg, JobID: jobID, TraceID: traceID})
}

// Stats records a periodic stats snapshot line.
func (r *Recorder) Stats(now time.Time, msg string) {
	r.Add(Record{Time: now, Kind: KindStats, Msg: msg})
}

// Len returns how many records the ring currently holds.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.next < uint64(len(r.ring)) {
		return int(r.next)
	}
	return len(r.ring)
}

// snapshotLocked copies the ring oldest-first; callers hold r.mu.
func (r *Recorder) snapshotLocked(now time.Time, reason string) Snapshot {
	s := Snapshot{Taken: now, Reason: reason}
	n := r.next
	size := uint64(len(r.ring))
	start := uint64(0)
	if n > size {
		start = n - size
	}
	s.Dropped = start
	s.Records = make([]Record, 0, n-start)
	for seq := start; seq < n; seq++ {
		s.Records = append(s.Records, r.ring[int(seq%size)])
	}
	return s
}

// Snapshot returns the current ring content, oldest record first.
func (r *Recorder) Snapshot(now time.Time) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.snapshotLocked(now, "")
}

// Freeze captures the ring at this instant and retains the copy (up to
// DefaultFrozen; the oldest freeze is evicted first) for the postmortem
// bundle.
func (r *Recorder) Freeze(now time.Time, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.frozen) >= DefaultFrozen {
		copy(r.frozen, r.frozen[1:])
		r.frozen = r.frozen[:len(r.frozen)-1]
	}
	r.frozen = append(r.frozen, r.snapshotLocked(now, reason))
}

// Frozen returns the retained frozen snapshots, oldest first.
func (r *Recorder) Frozen() []Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Snapshot, len(r.frozen))
	copy(out, r.frozen)
	return out
}
