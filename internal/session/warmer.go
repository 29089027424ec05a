package session

import (
	"math"
	"sync"
)

// The sweep detector's bounds: a track predicts once warmerHistory
// submissions form an arithmetic progression (two equal deltas), it
// predicts the next warmerPredict points, and the detector state and the
// set of cache keys remembered as pre-executed each reset when they reach
// their bound.
const (
	warmerHistory   = 3
	warmerPredict   = 2
	warmerMaxTracks = 512
	warmerMaxWarmed = 4096
)

// Prediction is one speculated next point of a sweep: the index of the
// advancing field and its predicted value.
type Prediction struct {
	Field int
	Value float64
}

// WarmerStats is the warmer's contribution to /v1/stats.
type WarmerStats struct {
	// Observed counts submissions fed to the detector.
	Observed int64 `json:"observed"`
	// Predictions counts speculated next points emitted.
	Predictions int64 `json:"predictions"`
	// Warmed counts predictions whose background pre-execution completed.
	Warmed int64 `json:"warmed"`
	// Shed counts predictions dropped: foreground traffic had priority, or
	// the point was already cached or in flight.
	Shed int64 `json:"shed"`
	// Hits counts interactive submissions answered from a pre-executed
	// cache entry — the warmer's payoff.
	Hits int64 `json:"hits"`
	// Tracks is the live detector-state size; Resets counts bound-driven
	// state flushes.
	Tracks int   `json:"tracks"`
	Resets int64 `json:"resets"`
}

// Merge folds another node's summary into the cluster view, a sum like
// Stats.Merge.
func (a WarmerStats) Merge(b WarmerStats) WarmerStats {
	return WarmerStats{
		Observed: a.Observed + b.Observed, Predictions: a.Predictions + b.Predictions,
		Warmed: a.Warmed + b.Warmed, Shed: a.Shed + b.Shed, Hits: a.Hits + b.Hits,
		Tracks: a.Tracks + b.Tracks, Resets: a.Resets + b.Resets,
	}
}

// Warmer detects stepped-parameter sweeps in the submission stream: the
// same canonical problem with exactly one numeric field advancing
// arithmetically (a `report sweep` scan, a user bisecting a parameter). Per
// candidate field it keeps one track keyed by everything *except* that
// field; when the same track sees warmerHistory values with equal non-zero
// deltas, the next warmerPredict points are speculated so idle workers can
// pre-execute them at background priority. A nil *Warmer is a valid
// disabled detector: every method is a cheap no-op.
type Warmer struct {
	mu     sync.Mutex
	tracks map[uint64]*track
	warmed map[string]struct{}

	observed    int64
	predictions int64
	warmedN     int64
	shed        int64
	hits        int64
	resets      int64
}

// track follows one candidate field of one request shape.
type track struct {
	last float64
	diff float64
	run  int // consecutive equal non-zero deltas seen
}

// NewWarmer builds a sweep detector.
func NewWarmer() *Warmer {
	return &Warmer{
		tracks: make(map[uint64]*track, warmerMaxTracks),
		warmed: make(map[string]struct{}, 64),
	}
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// trackKey hashes the request shape with field idx blanked: the track a
// sweep over field idx lands on regardless of idx's current value.
func trackKey(base string, idx int, fields []float64) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(base); i++ {
		h ^= uint64(base[i])
		h *= fnvPrime
	}
	h ^= uint64(idx)
	h *= fnvPrime
	for j, v := range fields {
		if j == idx {
			continue
		}
		h ^= math.Float64bits(v)
		h *= fnvPrime
	}
	return h
}

// Observe feeds one interactive submission to the detector: base is the
// request shape's non-numeric identity (kind, flags), fields its numeric
// parameters in a fixed order. It returns the speculated next points, nil
// when nothing progressed — the idle path BENCH_guards.json bounds.
func (w *Warmer) Observe(base string, fields []float64) []Prediction {
	if w == nil {
		return nil
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	w.observed++
	var preds []Prediction
	for i, v := range fields {
		key := trackKey(base, i, fields)
		t, ok := w.tracks[key]
		if !ok {
			if len(w.tracks) >= warmerMaxTracks {
				clear(w.tracks)
				w.resets++
			}
			w.tracks[key] = &track{last: v}
			continue
		}
		if v == t.last {
			continue // a repeat does not break the progression
		}
		d := v - t.last
		if d == t.diff {
			t.run++
		} else {
			t.diff = d
			t.run = 1
		}
		t.last = v
		if t.run >= warmerHistory-1 {
			for k := 1; k <= warmerPredict; k++ {
				preds = append(preds, Prediction{Field: i, Value: v + d*float64(k)})
			}
			w.predictions += int64(warmerPredict)
		}
	}
	return preds
}

// MarkWarmed records that a predicted point's background pre-execution
// completed and its result sits in the cache under key.
func (w *Warmer) MarkWarmed(key string) {
	if w == nil {
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.warmed) >= warmerMaxWarmed {
		clear(w.warmed)
		w.resets++
	}
	w.warmed[key] = struct{}{}
	w.warmedN++
}

// WasWarmed reports whether an interactive cache hit on key was served by
// a pre-executed result, counting it as a warmer hit when so.
func (w *Warmer) WasWarmed(key string) bool {
	if w == nil {
		return false
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.warmed[key]; !ok {
		return false
	}
	w.hits++
	return true
}

// NoteShed counts one prediction dropped before execution.
func (w *Warmer) NoteShed() {
	if w == nil {
		return
	}
	w.mu.Lock()
	w.shed++
	w.mu.Unlock()
}

// Stats snapshots the warmer counters.
func (w *Warmer) Stats() WarmerStats {
	if w == nil {
		return WarmerStats{}
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	return WarmerStats{
		Observed: w.observed, Predictions: w.predictions,
		Warmed: w.warmedN, Shed: w.shed, Hits: w.hits,
		Tracks: len(w.tracks), Resets: w.resets,
	}
}
