// Package vtime provides the virtual-time primitives behind the simulated
// GPU and the machine performance models: a Time type and serialized
// Resources (a PCIe bus, a GPU's kernel engine, a NIC) that hand out start
// times. What ran when is recorded by internal/obs, not here.
package vtime

import (
	"fmt"
	"sync"
)

// Time is a point in virtual time, in seconds.
type Time float64

// Seconds returns the time as a float64 second count.
func (t Time) Seconds() float64 { return float64(t) }

// Max returns the later of two times.
func Max(a, b Time) Time {
	if a > b {
		return a
	}
	return b
}

// Resource is a serially-shared facility: at most one operation occupies it
// at a time and waiters are served in request order. Acquire is safe for
// concurrent use.
type Resource struct {
	mu    sync.Mutex
	name  string
	avail Time
}

// NewResource returns an idle resource available from time zero.
func NewResource(name string) *Resource {
	return &Resource{name: name}
}

// Name returns the resource's name.
func (r *Resource) Name() string { return r.name }

// Acquire books the resource for duration dur, no earlier than ready, and
// returns the operation's start and end times.
func (r *Resource) Acquire(ready, dur Time) (start, end Time) {
	if dur < 0 {
		panic(fmt.Sprintf("vtime: negative duration %v on %s", dur, r.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	start = Max(ready, r.avail)
	end = start + dur
	r.avail = end
	return start, end
}

// Reset returns the resource to idle at time zero.
func (r *Resource) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.avail = 0
}
