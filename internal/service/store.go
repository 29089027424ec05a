package service

import (
	"strconv"
	"strings"
	"sync"
)

// registry holds one kind of live work on the node — jobs or sessions — by
// id, in arrival order, for status polls and result delivery, and mints its
// ids. Reads never touch the queue or the pool, so delivery stays responsive
// while the workers are saturated.
type registry[T interface{ ID() string }] struct {
	mu     sync.RWMutex
	items  map[string]T
	order  []string // arrival order, for listing
	next   int64
	prefix string // "<node>-<noun>-", or "<noun>-" standalone
}

// newRegistry builds an empty registry minting "<noun>-000001". A non-empty
// nodeID prefixes every id ("<node>-<noun>-000001"), keeping ids globally
// unique across a cluster's shards so a gateway can route polls by id alone.
func newRegistry[T interface{ ID() string }](nodeID, noun string) *registry[T] {
	prefix := noun + "-"
	if nodeID != "" {
		prefix = nodeID + "-" + prefix
	}
	return &registry[T]{items: map[string]T{}, prefix: prefix}
}

// NewID mints the next id.
func (r *registry[T]) NewID() string {
	r.mu.Lock()
	r.next++
	n := r.next
	r.mu.Unlock()
	var buf [20]byte
	digits := strconv.AppendInt(buf[:0], n, 10)
	return r.prefix + "000000"[min(len(digits), 6):] + string(digits)
}

// reserve advances the id sequence past id's number ("n1-sess-000007" → 7),
// so an id already on disk is never minted again.
func (r *registry[T]) reserve(id string) {
	n, _ := strconv.ParseInt(id[strings.LastIndexByte(id, '-')+1:], 10, 64)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.next = max(r.next, n)
}

// Add registers an item under its id.
func (r *registry[T]) Add(v T) {
	id := v.ID()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.items[id] = v
	r.order = append(r.order, id)
}

// Get looks an item up by id.
func (r *registry[T]) Get(id string) (T, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	v, ok := r.items[id]
	return v, ok
}

// List returns every item in arrival order.
func (r *registry[T]) List() []T {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]T, 0, len(r.order))
	for _, id := range r.order {
		out = append(out, r.items[id])
	}
	return out
}
