package obs

import (
	"crypto/rand"
	"encoding/hex"
	"time"
)

// Cross-process traces. The gateway mints one trace id per traced
// submission and hands it to the owning node in the job request's
// trace_id field; the node records its own spans under that id and serves
// them as a TraceContext. The gateway keeps its routing spans, folds a dead
// owner's log into them before a resubmission (ImportRemote), and joins
// the current owner's log to them when the trace is read (Joined), so one
// Chrome export spans gateway routing, the hop, and every owner's service
// and runner phases.
//
// Span times inside a context are seconds relative to the *sender's*
// epoch; EpochNS pins that epoch to the unix clock so the receiver can
// rebase them onto its own timeline. The measured offset is annotated on
// the gw.handoff span rather than hidden: on one host it is the true
// gateway->node hop, across hosts it also absorbs clock skew.

// TraceContext is one process's span log of one trace: the id minted at
// admission, the process's recorder epoch, and its spans so far.
type TraceContext struct {
	TraceID string `json:"trace_id"`
	EpochNS int64  `json:"epoch_ns"`
	Spans   []Span `json:"spans,omitempty"`
}

// traceIDZero is what NewTraceID degrades to without a random source.
const traceIDZero = "00000000000000000000000000000000"

// NewTraceID mints a random 128-bit hex trace id.
func NewTraceID() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable for the process anyway;
		// degrade to a fixed id rather than panic in an obs layer.
		return traceIDZero
	}
	return hex.EncodeToString(b[:])
}

// ValidTraceID reports whether id has the shape NewTraceID mints: 32 hex
// digits.
func ValidTraceID(id string) bool {
	_, err := hex.DecodeString(id)
	return len(id) == len(traceIDZero) && err == nil
}

// TraceContext snapshots the recorder into a context carrying the given
// trace id. A disabled recorder yields nil.
func (r *Recorder) TraceContext(id string) *TraceContext {
	if r == nil {
		return nil
	}
	return &TraceContext{TraceID: id, EpochNS: r.epoch.UnixNano(), Spans: r.Spans()}
}

// Joined returns one job's cluster trace as the gateway serves it: this
// recorder's spans, then one gw.handoff span, then the owner's span log
// rebased onto this recorder's epoch and stamped with the owner's node id.
// The handoff runs from the last wall instant recorded here to the owner's
// epoch and is labelled with the owner's clock offset; an owner clock
// behind ours makes it an instant at the owner's epoch. The recorder is
// left as it was, so a running job's trace can be read again.
func (r *Recorder) Joined(node string, owner *TraceContext) []Span {
	if r == nil {
		return nil
	}
	out := r.Spans()
	last := 0.0
	for _, s := range out {
		if s.Phase.Base() == BaseWall && s.End > last {
			last = s.End
		}
	}
	spans, off := r.rebase(node, owner)
	out = append(out, Span{
		Rank: RankGateway, Step: -1, Phase: PhaseGWHandoff,
		Label: "offset " + time.Duration(off*1e9).Round(time.Microsecond).String(),
		Start: min(last, off), End: off,
	})
	return append(out, spans...)
}

// ImportRemote folds another process's span log into this recorder under
// the given node id — the dead-node harvest, where the gateway pulls a
// lost owner's spans before resubmitting elsewhere.
func (r *Recorder) ImportRemote(node string, c *TraceContext) {
	if r == nil || c == nil {
		return
	}
	spans, _ := r.rebase(node, c)
	r.mu.Lock()
	r.spans = append(r.spans, spans...)
	r.mu.Unlock()
}

// rebase maps another process's span log onto this recorder's timeline
// under that process's node id: wall spans shift by the offset between the
// two epochs (returned, in seconds), sim spans carry virtual device time
// and pass unshifted, and inverted spans are dropped.
func (r *Recorder) rebase(node string, c *TraceContext) ([]Span, float64) {
	off := float64(c.EpochNS-r.epoch.UnixNano()) / 1e9
	out := make([]Span, 0, len(c.Spans))
	for _, s := range c.Spans {
		if s.End < s.Start {
			continue
		}
		if s.Phase.Base() == BaseWall {
			s.Start += off
			s.End += off
		}
		s.Node = node
		out = append(out, s)
	}
	return out, off
}
