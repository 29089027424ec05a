// Package session is a lint fixture loaded under an import path ending
// in internal/session, so the default registry's nilsafe configuration —
// the one the CI gate applies to the real package — covers Warmer here: a
// server without -warm holds a nil *Warmer, and every exported method must
// degrade to a no-op rather than panic.
package session

// Warmer mimics session.Warmer.
type Warmer struct {
	warmed map[string]bool
	shed   int64
}

// NoteShed guards something that is not the receiver.
func (w *Warmer) NoteShed(counter *int64) { // want `exported method \(\*Warmer\)\.NoteShed must begin with 'if w == nil'`
	if counter == nil {
		return
	}
	w.shed++
	*counter++
}

// WasWarmed guards as the leftmost operand of an || chain.
func (w *Warmer) WasWarmed(key string) bool {
	if w == nil || key == "" {
		return false
	}
	return w.warmed[key]
}
