package session

import "testing"

func TestWarmerDetectsSteppedSweep(t *testing.T) {
	w := NewWarmer()
	base := "sim|bulk"
	// Field 1 advances by 8 each submission; the rest are constant.
	fields := func(v float64) []float64 { return []float64{32, v, 2, 4} }
	if p := w.Observe(base, fields(8)); p != nil {
		t.Fatalf("first point predicted: %v", p)
	}
	if p := w.Observe(base, fields(16)); p != nil {
		t.Fatalf("one delta predicted: %v", p)
	}
	preds := w.Observe(base, fields(24))
	if len(preds) != 2 {
		t.Fatalf("predictions %v, want 2", preds)
	}
	for i, want := range []float64{32, 40} {
		if preds[i].Field != 1 || preds[i].Value != want {
			t.Fatalf("prediction %d = %+v, want field 1 value %g", i, preds[i], want)
		}
	}
	// The sweep continues: every further point keeps predicting ahead.
	preds = w.Observe(base, fields(32))
	if len(preds) != 2 || preds[0].Value != 40 || preds[1].Value != 48 {
		t.Fatalf("continued predictions %v", preds)
	}
	st := w.Stats()
	if st.Observed != 4 || st.Predictions != 4 {
		t.Fatalf("stats %+v", st)
	}
}

func TestWarmerIgnoresRepeatsAndNoise(t *testing.T) {
	w := NewWarmer()
	base := "sim|single"
	fields := func(v float64) []float64 { return []float64{16, v} }
	w.Observe(base, fields(8))
	w.Observe(base, fields(16))
	// An exact repeat (a cache-hitting client retry) must not break the
	// progression.
	if p := w.Observe(base, fields(16)); p != nil {
		t.Fatalf("repeat predicted: %v", p)
	}
	if preds := w.Observe(base, fields(24)); len(preds) != 2 {
		t.Fatalf("progression broken by repeat: %v", preds)
	}
	// A non-arithmetic jump resets the run.
	if p := w.Observe(base, fields(100)); p != nil {
		t.Fatalf("jump predicted: %v", p)
	}
	// Two different bases never share tracks.
	w2 := NewWarmer()
	w2.Observe("a", fields(8))
	w2.Observe("b", fields(16))
	w2.Observe("a", fields(16))
	w2.Observe("b", fields(24))
	if p := w2.Observe("a", fields(24)); len(p) != 2 {
		t.Fatalf("interleaved bases broke detection: %v", p)
	}
}

func TestWarmerTrackBound(t *testing.T) {
	w := NewWarmer()
	// Every field moves every time, so each submission opens three tracks.
	for i := 0; i < warmerMaxTracks; i++ {
		w.Observe("x", []float64{float64(i * 7), float64(i * 13), float64(i)})
	}
	st := w.Stats()
	if st.Tracks > warmerMaxTracks {
		t.Fatalf("tracks %d exceed bound %d", st.Tracks, warmerMaxTracks)
	}
	if st.Resets == 0 {
		t.Fatal("bound never triggered a reset")
	}
}

func TestWarmerHitAccounting(t *testing.T) {
	w := NewWarmer()
	if w.WasWarmed("k1") {
		t.Fatal("unwarmed key reported warm")
	}
	w.MarkWarmed("k1")
	w.NoteShed()
	if !w.WasWarmed("k1") {
		t.Fatal("warmed key not found")
	}
	st := w.Stats()
	if st.Warmed != 1 || st.Hits != 1 || st.Shed != 1 {
		t.Fatalf("stats %+v", st)
	}
}

// TestNilWarmerSafe pins the nil-receiver contract advectlint enforces: a
// node with warming disabled carries a nil *Warmer on every submission.
func TestNilWarmerSafe(t *testing.T) {
	var w *Warmer
	if p := w.Observe("x", []float64{1, 2}); p != nil {
		t.Fatalf("nil warmer predicted: %v", p)
	}
	w.MarkWarmed("k")
	w.NoteShed()
	if w.WasWarmed("k") {
		t.Fatal("nil warmer reported a hit")
	}
	if st := w.Stats(); st != (WarmerStats{}) {
		t.Fatalf("nil warmer stats %+v", st)
	}
}
