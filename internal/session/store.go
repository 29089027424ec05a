package session

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/grid"
)

// Store is the durable side of the subsystem: a directory of
// content-addressed checkpoint files (ck-<fingerprint>-<step>.ckpt, the
// versioned internal/checkpoint format) plus one JSON record per session
// (sess-<id>.json) describing where its trajectory stands. Everything a
// restarted process needs to resume is on disk; the in-memory Manager is
// rebuilt from a rescan.
type Store struct {
	mu  sync.Mutex
	dir string
}

// Open prepares a session store rooted at dir, creating it if needed.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("session: empty store directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("session: %w", err)
	}
	return &Store{dir: dir}, nil
}

// ckptFile names the checkpoint of fingerprint fp at step. The step is
// zero-padded so lexical order is numeric order.
func ckptFile(fp string, step int64) string {
	return fmt.Sprintf("ck-%s-%09d.ckpt", fp, step)
}

// SaveCheckpoint lands one durable segment boundary: the state of m's
// fingerprint at m.StepsDone, written atomically.
func (s *Store) SaveCheckpoint(m checkpoint.Meta, f *grid.Field) error {
	if m.Fingerprint == "" {
		return fmt.Errorf("session: checkpoint carries no fingerprint")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return checkpoint.SaveFile(filepath.Join(s.dir, ckptFile(m.Fingerprint, m.StepsDone)), m, f)
}

// LoadCheckpoint reads the state of fingerprint fp at step.
func (s *Store) LoadCheckpoint(fp string, step int64) (checkpoint.Meta, *grid.Field, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return checkpoint.LoadFile(filepath.Join(s.dir, ckptFile(fp, step)))
}

// CheckpointBytes returns the raw file of fingerprint fp at step, the form
// a gateway replicates to survive the owner's death.
func (s *Store) CheckpointBytes(fp string, step int64) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return os.ReadFile(filepath.Join(s.dir, ckptFile(fp, step)))
}

// Steps returns the retained checkpoint steps of fingerprint fp in
// ascending order.
func (s *Store) Steps(fp string) []int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepsLocked(fp)
}

func (s *Store) stepsLocked(fp string) []int64 {
	matches, err := filepath.Glob(filepath.Join(s.dir, "ck-"+fp+"-*.ckpt"))
	if err != nil {
		return nil
	}
	out := make([]int64, 0, len(matches))
	for _, m := range matches {
		base := strings.TrimSuffix(filepath.Base(m), ".ckpt")
		idx := strings.LastIndexByte(base, '-')
		if idx < 0 {
			continue
		}
		n, err := strconv.ParseInt(base[idx+1:], 10, 64)
		if err != nil {
			continue
		}
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Latest returns the newest retained checkpoint step of fingerprint fp.
func (s *Store) Latest(fp string) (int64, bool) {
	steps := s.Steps(fp)
	if len(steps) == 0 {
		return 0, false
	}
	return steps[len(steps)-1], true
}

// Prune drops the oldest checkpoints of fingerprint fp beyond retain
// (newest kept) and returns how many were removed.
func (s *Store) Prune(fp string, retain int) int {
	if retain < 1 {
		retain = 1
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	steps := s.stepsLocked(fp)
	if len(steps) <= retain {
		return 0
	}
	removed := 0
	for _, step := range steps[:len(steps)-retain] {
		if os.Remove(filepath.Join(s.dir, ckptFile(fp, step))) == nil {
			removed++
		}
	}
	return removed
}

// Record is the durable description of one session: everything needed to
// rebuild it after a restart. Problem and Options are JSON objects (floats
// round-trip bit-exactly; a scenario's Initial is nil and Rec and Ctx are
// never serialised), so a record plus the newest retained checkpoint fully
// determines how to continue.
type Record struct {
	ID          string       `json:"id"`
	State       State        `json:"state"`
	Kind        string       `json:"kind"`
	Problem     core.Problem `json:"problem"`
	Options     core.Options `json:"options"`
	Segment     int          `json:"segment"`
	Retain      int          `json:"retain"`
	DoneSteps   int64        `json:"done_steps"`
	Fingerprint string       `json:"fingerprint"`
	ParentFP    string       `json:"parent_fp,omitempty"`
	ParentStep  int64        `json:"parent_step,omitempty"`
	TraceID     string       `json:"trace_id,omitempty"`
	Resumes     int64        `json:"resumes"`
	Segments    int64        `json:"segments"`
	Error       string       `json:"error,omitempty"`
	Created     time.Time    `json:"created"`
	Updated     time.Time    `json:"updated"`
}

// SaveRecord persists one session record atomically and durably.
func (s *Store) SaveRecord(r Record) error {
	if r.ID == "" {
		return fmt.Errorf("session: record without id")
	}
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return checkpoint.WriteFileAtomic(filepath.Join(s.dir, "sess-"+r.ID+".json"), func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// Skipped names a record file Records could not use, and why.
type Skipped struct {
	File string
	Err  error
}

// Records loads every session record in the store. A file that cannot be
// read or decoded — a torn write, a record in an older binary's format —
// must not block recovery of the rest: it is left untouched and reported
// in skipped, so the caller can say which session stopped being one.
func (s *Store) Records() (recs []Record, skipped []Skipped, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	matches, err := filepath.Glob(filepath.Join(s.dir, "sess-*.json"))
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(matches)
	for _, m := range matches {
		var r Record
		data, err := os.ReadFile(m)
		if err == nil {
			err = json.Unmarshal(data, &r)
		}
		if err == nil && r.ID == "" {
			err = fmt.Errorf("session: record without id")
		}
		if err != nil {
			skipped = append(skipped, Skipped{File: filepath.Base(m), Err: err})
			continue
		}
		recs = append(recs, r)
	}
	return recs, skipped, nil
}
