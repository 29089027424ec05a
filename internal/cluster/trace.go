package cluster

import (
	"repro/internal/obs"
)

// submissionTrace is the gateway half of one distributed trace: the trace
// id minted at admission and the gw.* span recorder whose log rides the
// X-Advect-Trace header to the owning node. One submissionTrace follows a
// submission through every routing attempt, any failover, and — via the
// gateway job table — a dead-node resubmission, so the eventual owner
// receives the full routing history.
//
// The zero value is an untraced request: no id and a nil *obs.Recorder,
// which is nil-safe by contract, so every method below no-ops and
// allocates nothing and routeBody never branches on an "enabled" flag. The
// ci.sh gateway bench gate (BENCH_guards.json) holds that path to
// allocation-free.
type submissionTrace struct {
	id  string
	rec *obs.Recorder
}

// newSubmissionTrace mints a trace id and starts the gateway span clock.
func newSubmissionTrace() submissionTrace {
	return submissionTrace{id: obs.NewTraceID(), rec: obs.NewRecorder()}
}

// clock reads the gateway trace clock (seconds since admission).
func (t submissionTrace) clock() float64 { return t.rec.Clock() }

// add records one gateway-rank span timed with clock.
func (t submissionTrace) add(phase obs.Phase, label string, start, end float64) {
	t.rec.Add(obs.RankGateway, -1, phase, label, start, end)
}

// header snapshots the span log into an X-Advect-Trace value for the next
// dispatch ("" when untraced: set no header).
func (t submissionTrace) header() string { return t.rec.TraceContext(t.id).Encode() }

// harvest folds a lost node's span log into the gateway recorder under
// that node's id, so the resubmission header carries the dead attempt's
// service and runner spans alongside the gateway's own.
func (t submissionTrace) harvest(node string, c *obs.TraceContext) {
	t.rec.ImportRemote(node, c)
}
