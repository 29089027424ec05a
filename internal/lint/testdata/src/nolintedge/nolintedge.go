// Package nolintedge exercises the corners of the //advect:nolint escape
// hatch under the default registry. A library package minting a root
// context and sending it under a lock lets one line trip two analyzers at
// once.
package nolintedge

import (
	"context"
	"sync"
	"time"
)

type box struct {
	mu sync.Mutex
	ch chan context.Context
}

// chained: one line trips lockheld (a send under the lock) and ctxflow (a
// root context in library code); one comment carries both directives back
// to back.
func chained(b *box) {
	b.mu.Lock()
	b.ch <- context.Background() //advect:nolint lockheld fixture: chained directive, first half advect:nolint ctxflow fixture: chained directive, second half
	b.mu.Unlock()
}

// blockTrailing uses the block-comment form at the end of the flagged line.
func blockTrailing(b *box) {
	b.mu.Lock()
	time.Sleep(time.Millisecond) /* advect:nolint lockheld fixture: block-comment form, trailing */
	b.mu.Unlock()
}

// blockAbove uses the block-comment form on the line above.
func blockAbove(b *box) {
	b.mu.Lock()
	/* advect:nolint lockheld fixture: block-comment form, above */
	time.Sleep(time.Millisecond)
	b.mu.Unlock()
}

// lineAbove uses the line-comment form on the line above.
func lineAbove(b *box) {
	b.mu.Lock()
	//advect:nolint lockheld fixture: line form, above
	time.Sleep(time.Millisecond)
	b.mu.Unlock()
}

// unsuppressed pins that the analyzers really fire here: without a
// directive the same shape is two findings.
func unsuppressed(b *box) {
	b.mu.Lock()
	b.ch <- context.Background() // want `channel send while holding b.mu` `context.Background outside cmd/`
	b.mu.Unlock()
}

// A directive must name a known analyzer, and must say why.
func badDirectives(b *box) {
	b.mu.Lock()
	time.Sleep(time.Millisecond) //advect:nolint nosuch because it is quiet // want `unknown analyzer "nosuch"` `call to time.Sleep while holding b.mu`
	b.mu.Unlock()
}

func reasonless(b *box) {
	b.mu.Lock()
	time.Sleep(time.Millisecond) //advect:nolint lockheld // want `missing its reason` `call to time.Sleep while holding b.mu`
	b.mu.Unlock()
}
