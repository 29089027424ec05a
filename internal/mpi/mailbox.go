package mpi

import "sync"

// envelope is one in-flight message.
type envelope struct {
	src  int
	tag  int
	data []float64
}

// mailbox is a rank's incoming-message queue with MPI matching: a receive
// takes the earliest-arrived message from its source with its tag, which
// preserves MPI's non-overtaking guarantee between a sender/receiver pair.
//
// Payloads live in slots the mailbox recycles. A copying send fills a free
// slot; a persistent send is lent one to fill and queues it as it is. A
// receiver hands the slot back once it is done with it, so a steady
// exchange allocates nothing once its first messages have.
type mailbox struct {
	mu       sync.Mutex
	cond     *sync.Cond
	q        []envelope
	free     [][]float64 // slots received messages left behind
	poisoned bool
}

func newMailbox() *mailbox {
	m := &mailbox{}
	m.cond = sync.NewCond(&m.mu)
	return m
}

// take removes a slot of n values from the free list: the smallest free
// slot that holds n, or else a new slot that takes the place of a free one
// too small for it, so a mailbox never holds more slots than it once had
// messages in flight or lent at the same time. The caller holds m.mu.
func (m *mailbox) take(n int) []float64 {
	best := -1
	for i, s := range m.free {
		if cap(s) >= n && (best < 0 || cap(s) < cap(m.free[best])) {
			best = i
		}
	}
	if best < 0 {
		best = len(m.free) - 1 // every free slot is too small: the new one replaces one
	}
	var slot []float64
	if best >= 0 {
		if s := m.free[best]; cap(s) >= n {
			slot = s[:n]
		}
		last := len(m.free) - 1
		m.free[best], m.free[last] = m.free[last], nil
		m.free = m.free[:last]
	}
	if slot == nil {
		slot = make([]float64, n)
	}
	return slot
}

// enqueue queues slot as a message from src with tag and wakes the
// receivers. The caller holds m.mu.
func (m *mailbox) enqueue(src, tag int, slot []float64) {
	m.q = append(m.q, envelope{src: src, tag: tag, data: slot})
	m.cond.Broadcast()
}

// put queues a copy of data from src with tag.
func (m *mailbox) put(src, tag int, data []float64) {
	m.mu.Lock()
	slot := m.take(len(data))
	copy(slot, data)
	m.enqueue(src, tag, slot)
	m.mu.Unlock()
}

// lend hands a sender a slot of n values to fill and later queue with swap.
func (m *mailbox) lend(n int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.take(n)
}

// swap queues a lent slot, filled, as a message from src with tag, and
// lends the sender a slot of the same length for its next message.
func (m *mailbox) swap(src, tag int, slot []float64) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.enqueue(src, tag, slot)
	return m.take(len(slot))
}

// get blocks until a message from src with tag is available and removes
// it. The caller owns the payload until it hands it back with recycle, if
// ever.
func (m *mailbox) get(src, tag int) envelope {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for i, e := range m.q {
			if e.src == src && e.tag == tag {
				last := len(m.q) - 1
				copy(m.q[i:], m.q[i+1:])
				m.q[last] = envelope{} // the vacated tail must not pin a payload
				m.q = m.q[:last]
				return e
			}
		}
		if m.poisoned {
			panic("mpi: world poisoned by a peer rank's panic")
		}
		m.cond.Wait()
	}
}

// recycle hands a payload get returned back to the mailbox for a later
// message or loan. The caller must not touch it afterwards.
func (m *mailbox) recycle(slot []float64) {
	m.mu.Lock()
	m.free = append(m.free, slot)
	m.mu.Unlock()
}

// poison wakes all blocked receivers with a panic so a rank failure cannot
// deadlock the world.
func (m *mailbox) poison() {
	m.mu.Lock()
	m.poisoned = true
	m.cond.Broadcast()
	m.mu.Unlock()
}
