package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/harness"
	_ "repro/internal/impl" // register the functional implementations
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perf"
)

// SimulateResult is the rendered document of a simulate job. The final
// field is deliberately omitted — results are status documents, not
// multi-megabyte state dumps. Overlap and TraceURL are present only when
// the request set trace: the report summarizes how much communication was
// hidden; the URL serves the stitched Chrome trace-event JSON.
type SimulateResult struct {
	Kind       string             `json:"kind"`
	ElapsedSec float64            `json:"elapsed_sec"`
	GF         float64            `json:"gf"`
	L2         float64            `json:"l2,omitempty"`
	LInf       float64            `json:"linf,omitempty"`
	MassDrift  float64            `json:"mass_drift,omitempty"`
	Stats      map[string]float64 `json:"stats,omitempty"`
	Overlap    *obs.Report        `json:"overlap,omitempty"`
	TraceURL   string             `json:"trace_url,omitempty"`
}

// PredictResult is the rendered document of a predict job.
type PredictResult struct {
	Machine   string             `json:"machine"`
	Kind      string             `json:"kind"`
	Cores     int                `json:"cores"`
	Threads   int                `json:"threads"`
	StepSec   float64            `json:"step_sec"`
	GF        float64            `json:"gf"`
	Breakdown map[string]float64 `json:"breakdown,omitempty"`
}

// ExperimentResult is the rendered document of an experiment job: the
// harness's text tables and charts, verbatim.
type ExperimentResult struct {
	ID       string `json:"id"`
	Title    string `json:"title"`
	PaperRef string `json:"paper_ref"`
	Output   string `json:"output"`
}

// execute runs a validated request to completion under ctx and returns the
// rendered result document. rec is the job's span recorder (nil for
// untraced jobs); the runner records its per-rank phases into it, so the
// spans land on the same timeline as the service-level request lifecycle,
// and the overlap report built from them — once, the one the document
// embeds — is returned beside it for the windows and the anomaly engine.
// A panic below here is a bug in a runner or a model, and it is reported as
// the job's error: one request must not end the daemon's other jobs. A
// session segment (req.segment) leaves its raw result on the request
// instead of a document: its caller wants the final field, not JSON.
func execute(ctx context.Context, req Request, rec *obs.Recorder, jobID string) (doc json.RawMessage, rep *obs.Report, err error) {
	defer func() {
		if p := recover(); p != nil {
			doc, rep, err = nil, nil, fmt.Errorf("service: job %s panicked: %v", jobID, p)
		}
	}()
	switch req.Type {
	case TypeSimulate:
		return executeSimulate(ctx, req.Simulate, rec, jobID)
	case TypePredict:
		doc, err = executePredict(ctx, req.Predict)
	case TypeExperiment:
		doc, err = executeExperiment(ctx, req.Experiment)
	case typeSegment:
		seg := req.segment
		seg.res, err = run(ctx, seg.kind, seg.p, seg.o)
	default:
		err = fmt.Errorf("service: unknown job type %q", req.Type)
	}
	return doc, nil, err
}

// run is the one place the service enters a runner: a simulate job and a
// session segment both integrate through the registry, under ctx
// (cancellation is polled between timesteps).
func run(ctx context.Context, kind core.Kind, p core.Problem, o core.Options) (*core.Result, error) {
	r, err := core.New(kind)
	if err != nil {
		return nil, err
	}
	o.Ctx = ctx
	return r.Run(p, o)
}

func executeSimulate(ctx context.Context, sr *SimulateRequest, rec *obs.Recorder, jobID string) (json.RawMessage, *obs.Report, error) {
	kind, err := core.ParseKind(sr.Kind)
	if err != nil {
		return nil, nil, err
	}
	o := sr.options()
	o.Rec, o.SkipGather = rec, true // the result document carries no field
	res, err := run(ctx, kind, sr.problem(), o)
	if err != nil {
		return nil, nil, err
	}
	doc := SimulateResult{
		Kind:       kind.String(),
		ElapsedSec: res.Elapsed.Seconds(),
		GF:         res.GF,
		Stats:      res.Stats,
	}
	if sr.Verify {
		doc.L2 = res.Norms.L2
		doc.LInf = res.Norms.LInf
		doc.MassDrift = res.MassDrift
	}
	if rec != nil {
		rep := rec.Report()
		doc.Overlap = &rep
		doc.TraceURL = "/v1/jobs/" + jobID + "/trace"
	}
	enc := rec.Begin(obs.RankService, -1, obs.PhaseResultEncode, "")
	out, err := json.Marshal(doc)
	enc.End()
	return out, doc.Overlap, err
}

func executePredict(ctx context.Context, pr *PredictRequest) (json.RawMessage, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kind, err := core.ParseKind(pr.Kind)
	if err != nil {
		return nil, err
	}
	m, err := machine.ByName(pr.Machine)
	if err != nil {
		return nil, err
	}
	cfg := perf.Config{
		M: m, Kind: kind,
		Cores: pr.Cores, Threads: pr.Threads,
		BlockX: pr.BlockX, BlockY: pr.BlockY,
		BoxThickness: pr.BoxThickness, HaloWidth: pr.HaloWidth,
	}
	if pr.N > 0 {
		cfg.N = core.DefaultProblem(pr.N, 0).N
	}
	est, err := perf.Evaluate(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(PredictResult{
		Machine: m.Name, Kind: kind.String(),
		Cores: est.Config.Cores, Threads: est.Config.Threads,
		StepSec: est.StepSec, GF: est.GF,
		Breakdown: est.Breakdown,
	})
}

func executeExperiment(ctx context.Context, er *ExperimentRequest) (json.RawMessage, error) {
	// Harness experiments are bounded but not interruptible mid-run; honor
	// a cancellation that landed while the job was queued.
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	exp, err := harness.ByID(er.ID)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := exp.Run(&buf); err != nil {
		return nil, err
	}
	return json.Marshal(ExperimentResult{
		ID: exp.ID, Title: exp.Title, PaperRef: exp.PaperRef,
		Output: buf.String(),
	})
}
