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
// A nil *submissionTrace is the disabled path (untraced request): every
// method no-ops and allocates nothing, mirroring the nil *obs.Recorder
// contract, so routeBody never branches on an "enabled" flag. The ci.sh
// gateway bench gate (BENCH_guards.json) holds the disabled path to
// allocation-free.
type submissionTrace struct {
	id  string
	rec *obs.Recorder
}

// newSubmissionTrace mints a trace id and starts the gateway span clock.
func newSubmissionTrace() *submissionTrace {
	return &submissionTrace{id: obs.NewTraceID(), rec: obs.NewRecorder()}
}

// traceID returns the minted id ("" when disabled).
func (t *submissionTrace) traceID() string {
	if t == nil {
		return ""
	}
	return t.id
}

// clock reads the gateway trace clock (seconds since admission).
func (t *submissionTrace) clock() float64 {
	if t == nil {
		return 0
	}
	return t.rec.Clock()
}

// add records one gateway-rank span timed with clock.
func (t *submissionTrace) add(phase obs.Phase, label string, start, end float64) {
	if t == nil {
		return
	}
	t.rec.Add(obs.RankGateway, -1, phase, label, start, end)
}

// begin opens a gateway-rank span closed by its End.
func (t *submissionTrace) begin(phase obs.Phase, label string) obs.Active {
	if t == nil {
		return obs.Active{}
	}
	return t.rec.Begin(obs.RankGateway, -1, phase, label)
}

// header snapshots the span log into an X-Advect-Trace value for the next
// dispatch ("" when disabled: set no header).
func (t *submissionTrace) header() string {
	if t == nil {
		return ""
	}
	return t.rec.TraceContext(t.id).Encode()
}

// harvest folds a lost node's span log into the gateway recorder under
// that node's id, so the resubmission header carries the dead attempt's
// service and runner spans alongside the gateway's own.
func (t *submissionTrace) harvest(node string, c *obs.TraceContext) {
	if t == nil {
		return
	}
	t.rec.ImportRemote(node, c)
}
