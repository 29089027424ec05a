package session

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/checkpoint"
	"repro/internal/core"
	"repro/internal/grid"
)

// Store is the durable side of the subsystem: a directory of
// content-addressed checkpoint files (ck-<fingerprint>-<step>.ckpt, the
// versioned internal/checkpoint format) plus one JSON record per session
// (sess-<id>.json) describing where its trajectory stands. Everything a
// restarted process needs to resume is on disk; the node's live sessions
// are rebuilt from a rescan.
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
// fingerprint at m.StepsDone, written atomically. It returns the state's
// field hash, taken from the words as they are written.
func (s *Store) SaveCheckpoint(m checkpoint.Meta, f *grid.Field) (string, error) {
	if m.Fingerprint == "" {
		return "", fmt.Errorf("session: checkpoint carries no fingerprint")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return checkpoint.SaveFileHash(filepath.Join(s.dir, ckptFile(m.Fingerprint, m.StepsDone)), m, f)
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
		// The glob leaves the step between the name's last '-' and ".ckpt".
		step := strings.TrimSuffix(m[strings.LastIndexByte(m, '-')+1:], ".ckpt")
		if n, err := strconv.ParseInt(step, 10, 64); err == nil {
			out = append(out, n)
		}
	}
	slices.Sort(out)
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

// Own saves f as the session's checkpoint at meta.StepsDone, stamped with
// the lineage of sc — how a seed or a fork point becomes the state a new
// session starts from, whoever cut it — and returns the field hash the
// session's status reports.
func (s *Store) Own(sc Scenario, meta checkpoint.Meta, f *grid.Field) (string, error) {
	return s.SaveCheckpoint(meta.WithLineage(sc.Fingerprint(), sc.Options.Canonical()), f)
}

// LandSegment makes one finished segment of a session of sc durable: the
// final state of the segment problem p's run becomes the session's
// checkpoint at step done (checkpoint.FromResult, then Own), and the oldest
// checkpoints beyond the scenario's retention are pruned. It returns the
// state, the simulated time it stands at, and its field hash.
func (s *Store) LandSegment(sc Scenario, p core.Problem, res *core.Result, done int64) (*grid.Field, float64, string, error) {
	meta, f, err := checkpoint.FromResult(p, res)
	if err != nil {
		return nil, 0, "", err
	}
	meta.StepsDone = done
	hash, err := s.Own(sc, meta, f)
	if err != nil {
		return nil, 0, "", err
	}
	s.Prune(sc.Fingerprint(), sc.Retain)
	return f, meta.T0, hash, nil
}

// Record is the durable description of one session: its status exactly as
// the API shows it, plus the problem and options its scenario runs —
// everything needed to rebuild it after a restart. Problem and Options are
// JSON objects (floats round-trip bit-exactly; a scenario's Initial is nil
// and Rec and Ctx are never serialised), so a record plus the newest
// retained checkpoint fully determines how to continue. The status fields a
// record gained later (total_steps, last_checkpoint, field_hash, last_gf)
// are never required: an older record reads back with them zero.
type Record struct {
	View
	Problem core.Problem `json:"problem"`
	Options core.Options `json:"options"`
}

// Scenario inverts the record into the normalised scenario it was written
// from, and checks that the scenario still has the recorded fingerprint.
func (r Record) Scenario() (Scenario, error) {
	kind, err := core.ParseKind(r.Kind)
	if err != nil {
		return Scenario{}, err
	}
	sc, err := Scenario{
		Kind: kind, Problem: r.Problem, Options: r.Options,
		Segment: r.Segment, Retain: r.Retain,
		ParentFP: r.ParentFP, ParentStep: r.ParentStep, TraceID: r.TraceID,
	}.Normalize()
	if err != nil {
		return sc, err
	}
	if fp := sc.Fingerprint(); fp != r.Fingerprint {
		return sc, fmt.Errorf("recorded fingerprint %s does not match scenario (%s)", r.Fingerprint, fp)
	}
	return sc, nil
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
	slices.Sort(matches)
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
