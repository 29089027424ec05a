// Package service is the serving layer of the reproduction: a long-running
// daemon (cmd/advectd) that accepts simulation, prediction, and experiment
// jobs over an HTTP JSON API and executes them on a bounded worker pool
// fed by a bounded queue, with a content-addressed LRU result cache in
// front of the workers.
//
// The architecture applies the paper's core lesson — throughput comes from
// overlapping independent kinds of work rather than serializing them — to
// serving: admission (HTTP handlers), execution (workers), and result
// delivery (job store + cache reads) are decoupled stages that run
// concurrently, the way the paper's best implementation keeps CPU compute,
// GPU compute, MPI, and PCIe traffic all in flight at once. Backpressure
// is explicit: when the queue is full the API sheds load with 429 and a
// Retry-After estimate instead of queueing unboundedly.
package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// State is a job's position in its lifecycle.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job types.
const (
	TypeSimulate   = "simulate"
	TypePredict    = "predict"
	TypeExperiment = "experiment"
)

// typeSegment labels a session segment on the job path (metrics, exec
// window, logs). It is not a type the API accepts: only the session
// runner builds one, so Types does not list it.
const typeSegment = "segment"

// Types lists the job types the service accepts.
func Types() []string { return []string{TypeSimulate, TypePredict, TypeExperiment} }

// Traced reports whether the request asked for span recording.
func (r *Request) Traced() bool {
	return r.Type == TypeSimulate && r.Simulate != nil && r.Simulate.Trace
}

// Request is the body of POST /v1/jobs: a type tag plus the matching
// payload.
type Request struct {
	Type       string             `json:"type"`
	Simulate   *SimulateRequest   `json:"simulate,omitempty"`
	Predict    *PredictRequest    `json:"predict,omitempty"`
	Experiment *ExperimentRequest `json:"experiment,omitempty"`
	// TraceID joins a traced job to a cluster-wide trace: a gateway mints
	// it and reads the job's spans back under it. Submit keeps it only on
	// a traced request and only in the shape obs.NewTraceID mints; any
	// other value is dropped, never rejected.
	TraceID string `json:"trace_id,omitempty"`

	segment *segment // set only by Server.runSegment, with Type typeSegment
}

// segment is one session segment riding the job path: what the session's
// run loop asked for, and where the worker leaves the answer — res by
// execute, err and the done signal by land.
type segment struct {
	kind core.Kind
	p    core.Problem
	o    core.Options
	res  *core.Result
	err  error
	done chan struct{}
}

// SimulateRequest runs one of the paper's implementations functionally
// (advect.Run) and reports timing, throughput, and verification norms.
type SimulateRequest struct {
	Kind  string  `json:"kind"`            // implementation identifier, e.g. "hybrid-overlap"
	N     int     `json:"n"`               // grid points per dimension
	Steps int     `json:"steps"`           // timesteps to integrate
	Nu    float64 `json:"nu,omitempty"`    // 0 selects the maximum stable value
	Tasks int     `json:"tasks,omitempty"` // MPI tasks; 0 means 1
	// Threads is OpenMP threads per task; 0 means 1.
	Threads      int    `json:"threads,omitempty"`
	BlockX       int    `json:"blockx,omitempty"`
	BlockY       int    `json:"blocky,omitempty"`
	BoxThickness int    `json:"thickness,omitempty"`
	HaloWidth    int    `json:"halowidth,omitempty"`
	TasksPerGPU  int    `json:"taskspergpu,omitempty"`
	GPU          string `json:"gpu,omitempty"` // "c1060" or "c2050"
	Verify       bool   `json:"verify,omitempty"`
	// Trace attaches a span recorder to the run: the result document then
	// carries the overlap-efficiency report and a trace_url pointing at
	// GET /v1/jobs/{id}/trace, which serves a stitched Chrome trace-event
	// JSON (loadable in ui.perfetto.dev) of the request lifecycle and the
	// per-rank runner phases on one timeline.
	Trace bool `json:"trace,omitempty"`
}

// PredictRequest queries the calibrated performance model (advect.Predict)
// for a machine-scale configuration.
type PredictRequest struct {
	Machine      string `json:"machine"` // Table II name, e.g. "Yona"
	Kind         string `json:"kind"`
	Cores        int    `json:"cores"`
	Threads      int    `json:"threads,omitempty"`
	N            int    `json:"n,omitempty"` // grid points per dimension; 0 selects the paper's 420
	BlockX       int    `json:"blockx,omitempty"`
	BlockY       int    `json:"blocky,omitempty"`
	BoxThickness int    `json:"thickness,omitempty"`
	HaloWidth    int    `json:"halowidth,omitempty"`
}

// ExperimentRequest regenerates one of the harness's paper tables/figures.
type ExperimentRequest struct {
	ID string `json:"id"` // e.g. "fig3", "tab3", "ext-wide"
}

// Limits bounds the work a single request may ask for, so one client
// cannot wedge the pool with an enormous simulation.
type Limits struct {
	MaxN     int `json:"max_n"`
	MaxSteps int `json:"max_steps"`
	MaxTasks int `json:"max_tasks"`
	// MaxThreads bounds threads per task.
	MaxThreads int `json:"max_threads"`
}

// DefaultLimits is sized for interactive use: large enough for every
// example in the repo, small enough that a single job cannot monopolize
// the daemon for minutes.
func DefaultLimits() Limits {
	return Limits{MaxN: 256, MaxSteps: 10_000, MaxTasks: 64, MaxThreads: 64}
}

// Validate checks the request shape against the limits and returns a
// client-facing error.
func (r *Request) Validate(lim Limits) error {
	set := 0
	if r.Simulate != nil {
		set++
	}
	if r.Predict != nil {
		set++
	}
	if r.Experiment != nil {
		set++
	}
	if set != 1 {
		return fmt.Errorf("exactly one of simulate, predict, experiment must be set (got %d)", set)
	}
	switch r.Type {
	case TypeSimulate:
		if r.Simulate == nil {
			return fmt.Errorf("type %q requires the simulate payload", r.Type)
		}
		return r.Simulate.validate(lim)
	case TypePredict:
		if r.Predict == nil {
			return fmt.Errorf("type %q requires the predict payload", r.Type)
		}
		return r.Predict.validate()
	case TypeExperiment:
		if r.Experiment == nil {
			return fmt.Errorf("type %q requires the experiment payload", r.Type)
		}
		if r.Experiment.ID == "" {
			return fmt.Errorf("experiment id must be set")
		}
		return nil
	default:
		return fmt.Errorf("unknown job type %q (want simulate, predict, or experiment)", r.Type)
	}
}

func (sr *SimulateRequest) validate(lim Limits) error {
	if _, err := core.ParseKind(sr.Kind); err != nil {
		return err
	}
	if sr.N < 3 || sr.N > lim.MaxN {
		return fmt.Errorf("n %d out of range [3, %d]", sr.N, lim.MaxN)
	}
	if err := lim.checkWork(sr.Steps, sr.Tasks, sr.Threads); err != nil {
		return err
	}
	if _, err := core.ParseGPU(sr.GPU); err != nil {
		return err
	}
	return nil
}

// checkWork bounds the steps, tasks and threads a run asks for: a job or
// session create, and a fork's merged options.
func (lim Limits) checkWork(steps, tasks, threads int) error {
	if steps < 0 || steps > lim.MaxSteps {
		return fmt.Errorf("steps %d out of range [0, %d]", steps, lim.MaxSteps)
	}
	if tasks < 0 || tasks > lim.MaxTasks {
		return fmt.Errorf("tasks %d out of range [0, %d]", tasks, lim.MaxTasks)
	}
	if threads < 0 || threads > lim.MaxThreads {
		return fmt.Errorf("threads %d out of range [0, %d]", threads, lim.MaxThreads)
	}
	return nil
}

func (pr *PredictRequest) validate() error {
	if _, err := core.ParseKind(pr.Kind); err != nil {
		return err
	}
	if pr.Machine == "" {
		return fmt.Errorf("machine must be set")
	}
	if pr.Cores < 0 {
		return fmt.Errorf("cores %d < 0", pr.Cores)
	}
	return nil
}

// problem converts the request into a core problem.
func (sr *SimulateRequest) problem() core.Problem {
	p := core.DefaultProblem(sr.N, sr.Steps)
	p.Nu = sr.Nu
	return p
}

// options converts the request into run options (without a context).
func (sr *SimulateRequest) options() core.Options {
	gpu, _ := core.ParseGPU(sr.GPU)
	return core.Options{
		Tasks: sr.Tasks, Threads: sr.Threads,
		BlockX: sr.BlockX, BlockY: sr.BlockY,
		BoxThickness: sr.BoxThickness,
		HaloWidth:    sr.HaloWidth,
		TasksPerGPU:  sr.TasksPerGPU,
		GPU:          gpu,
		Verify:       sr.Verify,
	}
}

// CacheKey returns the request's content-addressed cache key: requests
// share a key exactly when they describe the same computation. Simulate
// keys reuse the core canonical fingerprint; predict and experiment keys
// hash their own canonical field lists.
func (r *Request) CacheKey() string {
	switch r.Type {
	case TypeSimulate:
		k, _ := core.ParseKind(r.Simulate.Kind)
		p, err := r.Simulate.problem().Normalize()
		if err != nil {
			// Not normalizable: hash the raw form; the run will fail with
			// the real error.
			p = r.Simulate.problem()
		}
		prefix := "sim-"
		if r.Simulate.Trace {
			// Traced results carry the overlap report and trace_url; keep
			// them from answering untraced requests (and vice versa).
			prefix = "simt-"
		}
		return prefix + core.Fingerprint(k, p, r.Simulate.options().Normalize())
	case TypePredict:
		pr := r.Predict
		n := pr.N
		if n == 0 {
			n = 420
		}
		s := strings.Join([]string{
			"predict", pr.Machine, pr.Kind,
			strconv.Itoa(pr.Cores), strconv.Itoa(pr.Threads), strconv.Itoa(n),
			strconv.Itoa(pr.BlockX), strconv.Itoa(pr.BlockY),
			strconv.Itoa(pr.BoxThickness), strconv.Itoa(pr.HaloWidth),
		}, "|")
		sum := sha256.Sum256([]byte(s))
		return "pred-" + hex.EncodeToString(sum[:])
	case TypeExperiment:
		sum := sha256.Sum256([]byte("experiment|" + r.Experiment.ID))
		return "exp-" + hex.EncodeToString(sum[:])
	}
	return ""
}

// Job is one unit of work moving through the service.
type Job struct {
	mu sync.Mutex

	id        string
	node      string // the node that admitted it (Config.NodeID); set once, before the job is shared
	req       Request
	state     State
	submitted time.Time
	started   time.Time
	finished  time.Time
	cacheKey  string
	cacheHit  bool
	errMsg    string
	result    json.RawMessage

	ctx    context.Context
	cancel context.CancelFunc

	// rec is the job's span recorder, created at submit time for traced
	// requests (nil otherwise, which disables all recording). Because it
	// exists before the worker handoff, service-level spans (queue wait,
	// worker exec) and the runner's per-rank spans share one epoch — the
	// stitched timeline behind GET /v1/jobs/{id}/trace. Set once before
	// the job is shared; safe to read without the mutex.
	rec *obs.Recorder
	// queuedAt is rec's clock reading when the job entered the queue.
	queuedAt float64
}

// newJob builds a queued job whose context descends from base. Traced
// requests get a live span recorder whose epoch is the submit instant.
func newJob(id string, req Request, base context.Context, now time.Time) *Job {
	ctx, cancel := context.WithCancel(base)
	j := &Job{
		id: id, req: req, state: StateQueued, submitted: now,
		cacheKey: req.CacheKey(), ctx: ctx, cancel: cancel,
	}
	if req.Traced() {
		j.rec = obs.NewRecorder()
	}
	return j
}

// Trace returns the job's span recorder (nil for untraced jobs and jobs
// answered from the result cache).
func (j *Job) Trace() *obs.Recorder { return j.rec }

// ID returns the job's identifier.
func (j *Job) ID() string { return j.id }

// State returns the job's current lifecycle state.
func (j *Job) State() State {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// claim transitions queued → running; it fails if the job was cancelled
// while waiting in the queue (or is otherwise not claimable).
func (j *Job) claim(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateQueued {
		return false
	}
	j.state = StateRunning
	j.started = now
	return true
}

// finish lands a terminal state with either a result or an error.
func (j *Job) finish(state State, result json.RawMessage, errMsg string, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return
	}
	j.state = state
	j.result = result
	j.errMsg = errMsg
	j.finished = now
	j.cancel() // release the context's resources
}

// completeFromCache lands a done state directly from the result cache.
func (j *Job) completeFromCache(result json.RawMessage, now time.Time) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.state = StateDone
	j.result = result
	j.cacheHit = true
	j.started = now
	j.finished = now
	j.cancel()
}

// Cancel requests cancellation: a queued job lands in cancelled
// immediately; a running job has its context cancelled and lands in
// cancelled when the implementation notices (between timesteps). Returns
// false if the job had already finished.
func (j *Job) Cancel(now time.Time) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	switch j.state {
	case StateQueued:
		j.state = StateCancelled
		j.finished = now
		j.cancel()
		return true
	case StateRunning:
		j.cancel()
		return true
	}
	return false
}

// Result returns the rendered result if the job is done.
func (j *Job) Result() (json.RawMessage, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state != StateDone {
		return nil, false
	}
	return j.result, true
}

// View is the JSON representation of a job's status.
type View struct {
	ID        string     `json:"id"`
	Node      string     `json:"node,omitempty"`
	Type      string     `json:"type"`
	State     State      `json:"state"`
	Submitted time.Time  `json:"submitted"`
	Started   *time.Time `json:"started,omitempty"`
	Finished  *time.Time `json:"finished,omitempty"`
	CacheKey  string     `json:"cache_key"`
	CacheHit  bool       `json:"cache_hit"`
	TraceID   string     `json:"trace_id,omitempty"`
	Error     string     `json:"error,omitempty"`
	Request   Request    `json:"request"`
}

// View snapshots the job for the API.
func (j *Job) View() View {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := View{
		ID: j.id, Node: j.node, Type: j.req.Type, State: j.state,
		Submitted: j.submitted, CacheKey: j.cacheKey, CacheHit: j.cacheHit,
		TraceID: j.req.TraceID, Error: j.errMsg, Request: j.req,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}
