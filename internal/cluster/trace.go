package cluster

import (
	"repro/internal/obs"
)

// submissionTrace is the gateway half of one distributed trace: the trace
// id minted at admission, which the owning node receives in the request's
// trace_id field, and the gw.* span recorder the gateway keeps. One
// submissionTrace follows a submission through every routing attempt, any
// failover, and — via the gateway job table — a dead-node resubmission, so
// the trace the gateway serves holds the full routing history.
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

// harvest folds a lost node's span log into the gateway recorder under
// that node's id, so the trace shows the dead attempt's service and runner
// spans alongside the gateway's own.
func (t submissionTrace) harvest(node string, c *obs.TraceContext) {
	t.rec.ImportRemote(node, c)
}
