package flight

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/telemetry"
)

// Rule names, as they appear in Anomaly.Rule and AnomalyStats.ByRule.
const (
	RuleLatencySpike = "latency-spike"
	RuleShedBurst    = "shed-burst"
	RuleStraggler    = "straggler"
	RuleModelDrift   = "model-drift"
	RuleResumeLoop   = "resume-loop"
)

// Rules is what a deployment tunes of the anomaly engine. The zero value
// is usable: each field falls back to the default documented on it.
type Rules struct {
	// DriftTolerance fires model-drift when |measured − predicted|
	// hidden-communication fraction exceeds it (default 0.35).
	DriftTolerance float64
	// ModelMachine names the machine model jobs are scored against
	// (default "Yona", the paper's GPU testbed).
	ModelMachine string
}

// The thresholds no deployment sets.
const (
	// maxAnomalies bounds the node's retained anomaly history (oldest
	// evicted first).
	maxAnomalies = 64
	// cooldown suppresses refiring a rule while one firing is still fresh.
	cooldown = 30 * time.Second
	// latencyFactor fires latency-spike when a type's exec window — the
	// /v1/stats "exec" entry — has a p99 above factor × its lifetime mean
	// (total_sum/total_count), given latencyMinCount samples in the window.
	latencyFactor   = 8
	latencyMinCount = 8
	// shedBurst fires shed-burst when the /v1/stats "shed" window counts
	// at least this many 429/503 sheds.
	shedBurst = 10
	// stragglerRatio fires straggler when a job's max/mean rank busy ratio
	// exceeds it (needs ≥ 2 ranks).
	stragglerRatio = 2
	// resumeLoop fires resume-loop when one session is recovered or
	// resumed this many times without its step count advancing — a
	// crash-recovery loop that keeps replaying the same segment.
	resumeLoop = 3
)

func (r Rules) withDefaults() Rules {
	if r.DriftTolerance <= 0 {
		r.DriftTolerance = 0.35
	}
	if r.ModelMachine == "" {
		r.ModelMachine = "Yona"
	}
	return r
}

// Anomaly is one rule firing.
type Anomaly struct {
	Seq     uint64    `json:"seq"`
	Time    time.Time `json:"time"`
	Rule    string    `json:"rule"`
	Message string    `json:"message"`
	JobID   string    `json:"job_id,omitempty"`
	TraceID string    `json:"trace_id,omitempty"`
	Kind    string    `json:"kind,omitempty"`
	// Value is the measured quantity that tripped the rule, Bound the
	// threshold it crossed, Expected the model-side prediction (drift
	// only).
	Value    float64 `json:"value"`
	Bound    float64 `json:"bound"`
	Expected float64 `json:"expected,omitempty"`
}

// AnomalyStats summarizes an engine for /v1/stats.
type AnomalyStats struct {
	Total  uint64         `json:"total"`
	ByRule map[string]int `json:"by_rule,omitempty"`
	// Frozen counts flight snapshots frozen by firings.
	Frozen int `json:"frozen"`
	// Recent is the retained anomaly history, oldest first, bounded by
	// maxAnomalies.
	Recent []Anomaly `json:"recent,omitempty"`
}

// JobSample is one finished traced job as the engine sees it.
type JobSample struct {
	JobID   string
	TraceID string
	// Kind is the implementation kind string of the run.
	Kind    string
	N       int
	Tasks   int
	Threads int
	// Report is the run's overlap report, the one its result embeds.
	Report *obs.Report
}

// Engine judges traced jobs and the node's rolling windows against the
// configured rules. It keeps no series of its own: the windowed rules read
// the /v1/stats document of the instant, so an alarm's value is a number an
// operator can read there. Firings invoke the notify callback (outside the
// engine lock) and then freeze a flight-recorder snapshot.
type Engine struct {
	rules Rules
	rec   *Recorder
	model *machine.Machine

	mu       sync.Mutex
	resumes  map[string]resumeTrack // per session id
	lastFire map[string]time.Time
	anoms    []Anomaly
	total    uint64
	byRule   map[string]int
	frozen   int
	notify   func(Anomaly)
}

// resumeTrack follows one session's recoveries: how many landed while its
// step count stood still at steps.
type resumeTrack struct {
	steps int64
	count int
}

// maxResumeTracks bounds the per-session resume state; when full, the map
// resets (a node hosts far fewer live sessions than this).
const maxResumeTracks = 1024

// NewEngine builds an engine over the given rules, freezing snapshots of
// rec on every firing.
func NewEngine(rules Rules, rec *Recorder) *Engine {
	r := rules.withDefaults()
	e := &Engine{
		rules:    r,
		rec:      rec,
		resumes:  make(map[string]resumeTrack),
		lastFire: make(map[string]time.Time),
		byRule:   make(map[string]int),
	}
	if m, err := machine.ByName(r.ModelMachine); err == nil {
		e.model = m
	}
	return e
}

// Notify registers fn to run (outside the engine lock) on every firing,
// before the flight ring is frozen.
func (e *Engine) Notify(fn func(Anomaly)) {
	e.mu.Lock()
	e.notify = fn
	e.mu.Unlock()
}

// fire appends the anomaly, notifies and then freezes the flight ring —
// unless the rule is still cooling down. The engine adds no ring record of
// its own: the notify callback's log line, teed into the ring, is the
// firing's one record, and the freeze that follows holds it.
func (e *Engine) fire(a Anomaly) {
	e.mu.Lock()
	if last, ok := e.lastFire[a.Rule]; ok && a.Time.Sub(last) < cooldown {
		e.mu.Unlock()
		return
	}
	e.lastFire[a.Rule] = a.Time
	a.Seq = e.total
	e.total++
	e.byRule[a.Rule]++
	if len(e.anoms) >= maxAnomalies {
		copy(e.anoms, e.anoms[1:])
		e.anoms = e.anoms[:len(e.anoms)-1]
	}
	e.anoms = append(e.anoms, a)
	notify := e.notify
	e.frozen++
	e.mu.Unlock()

	if notify != nil {
		notify(a)
	}
	e.rec.Freeze(a.Time, a.Rule)
}

// ObserveJob checks one finished traced job's report for straggler
// imbalance and model-vs-measured overlap drift.
func (e *Engine) ObserveJob(now time.Time, s JobSample) {
	if s.Report == nil {
		return
	}
	e.checkStraggler(now, s)
	e.checkDrift(now, s)
}

// ObserveResume feeds one session recovery or resume with the step count
// it restarts from. Resumes are healthy — a restart, a pause lifted — but
// the same session resuming repeatedly from the same step means every
// attempt dies before its next durable checkpoint: a crash-recovery loop
// burning the node, which fires resume-loop once the count reaches
// resumeLoop.
func (e *Engine) ObserveResume(now time.Time, sessionID string, doneSteps int64) {
	e.mu.Lock()
	t, ok := e.resumes[sessionID]
	if !ok && len(e.resumes) >= maxResumeTracks {
		clear(e.resumes)
	}
	if !ok || t.steps != doneSteps {
		t = resumeTrack{steps: doneSteps}
	}
	t.count++
	e.resumes[sessionID] = t
	e.mu.Unlock()
	if t.count < resumeLoop {
		return
	}
	e.fire(Anomaly{
		Time: now,
		Rule: RuleResumeLoop,
		Message: fmt.Sprintf("session %s resumed %d times without advancing past step %d",
			sessionID, t.count, doneSteps),
		JobID: sessionID,
		Value: float64(t.count),
		Bound: resumeLoop,
	})
}

// checkStraggler fires when one rank's busy time dominates the others.
func (e *Engine) checkStraggler(now time.Time, s JobSample) {
	imb := s.Report.Imbalance
	if imb == nil || len(imb.Ranks) < 2 || imb.Ratio <= stragglerRatio {
		return
	}
	e.fire(Anomaly{
		Time: now,
		Rule: RuleStraggler,
		Message: fmt.Sprintf("rank %d busy %.1f× the mean (%0.3fs vs %0.3fs) over %d ranks",
			imb.Straggler, imb.Ratio, imb.MaxSec, imb.MeanSec, len(imb.Ranks)),
		JobID:   s.JobID,
		TraceID: s.TraceID,
		Kind:    s.Kind,
		Value:   imb.Ratio,
		Bound:   stragglerRatio,
	})
}

// checkDrift compares the job's measured hidden-communication fraction
// (the mpi/compute pair of its overlap report) against the perf model's
// prediction for the same kind and shape, firing when the gap
// exceeds the tolerance band.
func (e *Engine) checkDrift(now time.Time, s JobSample) {
	if e.model == nil || s.Kind == "" {
		return
	}
	pair := s.Report.Pair(obs.PairMPICompute)
	if pair.CommSec <= 0 {
		return
	}
	measured := pair.Fraction
	kind, err := core.ParseKind(s.Kind)
	if err != nil {
		return
	}
	o := core.Options{Tasks: s.Tasks, Threads: s.Threads}.Normalize()
	expected, err := perf.ExpectedHiddenFraction(perf.Config{
		M:       e.model,
		Kind:    kind,
		Cores:   o.Tasks * o.Threads,
		Threads: o.Threads,
		N:       grid.Uniform(s.N),
	})
	if err != nil {
		return
	}
	gap := measured - expected
	if gap < 0 {
		gap = -gap
	}
	if gap <= e.rules.DriftTolerance {
		return
	}
	e.fire(Anomaly{
		Time: now,
		Rule: RuleModelDrift,
		Message: fmt.Sprintf("measured hidden-comm fraction %.2f vs model %.2f for %s on %s (|drift| %.2f > %.2f)",
			measured, expected, s.Kind, e.rules.ModelMachine, gap, e.rules.DriftTolerance),
		JobID:    s.JobID,
		TraceID:  s.TraceID,
		Kind:     s.Kind,
		Value:    measured,
		Bound:    e.rules.DriftTolerance,
		Expected: expected,
	})
}

// Sweep evaluates the windowed rules at now against the node's own rolling
// windows — the "exec" and "shed" entries of the /v1/stats document of that
// instant. The service calls it periodically from its sweep loop.
func (e *Engine) Sweep(now time.Time, exec map[string]telemetry.Stats, shed telemetry.Stats) {
	for typ, st := range exec {
		if st.Count < latencyMinCount {
			continue
		}
		mean := st.TotalSum / float64(st.TotalCount)
		if bound := mean * latencyFactor; st.P99 > bound {
			e.fire(Anomaly{
				Time: now,
				Rule: RuleLatencySpike,
				Message: fmt.Sprintf("%s p99 %.3fs exceeds %d× lifetime mean %.4fs",
					typ, st.P99, latencyFactor, mean),
				Kind:  typ,
				Value: st.P99,
				Bound: bound,
			})
		}
	}
	if shed.Count >= shedBurst {
		e.fire(Anomaly{
			Time: now,
			Rule: RuleShedBurst,
			Message: fmt.Sprintf("%d admissions shed in the last %.0fs",
				shed.Count, shed.WindowSec),
			Value: float64(shed.Count),
			Bound: shedBurst,
		})
	}
}

// Anomalies returns the engine's summary: totals, per-rule counts, and
// the retained history oldest first.
func (e *Engine) Anomalies() AnomalyStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := AnomalyStats{Total: e.total, Frozen: e.frozen}
	if len(e.byRule) > 0 {
		st.ByRule = make(map[string]int, len(e.byRule))
		for k, v := range e.byRule {
			st.ByRule[k] = v
		}
	}
	st.Recent = make([]Anomaly, len(e.anoms))
	copy(st.Recent, e.anoms)
	return st
}
