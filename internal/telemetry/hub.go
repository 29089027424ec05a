package telemetry

import (
	"encoding/json"
	"sync"
)

// Event is one message on the live stream: a named payload, already encoded,
// so the hub never touches subscriber-specific state.
type Event struct {
	Name string
	Data json.RawMessage
}

// Hub is a small publish/subscribe fan-out for the SSE stream. Publishing
// never blocks: a subscriber whose buffer is full simply misses that event
// (the stream is a live view, not a durable log).
type Hub struct {
	mu     sync.Mutex
	subs   map[chan Event]struct{}
	closed bool
}

// NewHub returns an empty hub ready for subscribers.
func NewHub() *Hub {
	return &Hub{subs: make(map[chan Event]struct{})}
}

// Subscribe registers a new subscriber with the given channel buffer and
// returns its receive channel plus a cancel function. The channel is closed
// by cancel or by Close, whichever comes first; cancel is idempotent. On a
// closed hub the returned channel is already closed.
func (h *Hub) Subscribe(buf int) (<-chan Event, func()) {
	ch := make(chan Event, buf)
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		close(ch)
		return ch, func() {}
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()

	var once sync.Once
	cancel := func() {
		once.Do(func() {
			h.mu.Lock()
			if _, ok := h.subs[ch]; ok {
				delete(h.subs, ch)
				close(ch)
			}
			h.mu.Unlock()
		})
	}
	return ch, cancel
}

// Publish fans the event out to every subscriber without blocking. Events a
// slow subscriber cannot accept are discarded.
func (h *Hub) Publish(ev Event) {
	h.mu.Lock()
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	h.mu.Unlock()
}

// Close shuts the hub down: every subscriber channel is closed and future
// Subscribe calls return closed channels. Idempotent.
func (h *Hub) Close() {
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for ch := range h.subs {
			delete(h.subs, ch)
			close(ch)
		}
	}
	h.mu.Unlock()
}
