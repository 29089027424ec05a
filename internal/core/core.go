// Package core defines the shared vocabulary of the reproduction: the
// advection test problem (paper §II), the catalogue of the nine
// implementations (§IV), run options, results with verification norms, and
// a registry through which the implementations in internal/impl are
// constructed. The root package advect re-exports this as the public API.
package core

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// Kind identifies one of the paper's nine implementations (§IV-A … §IV-I).
type Kind int

const (
	// SingleTask is §IV-A: one task, OpenMP threading only.
	SingleTask Kind = iota
	// BulkSync is §IV-B: bulk-synchronous MPI.
	BulkSync
	// NonblockingOverlap is §IV-C: MPI overlap via nonblocking
	// communication and interior thirds.
	NonblockingOverlap
	// ThreadedOverlap is §IV-D: MPI overlap via an OpenMP master thread
	// and guided scheduling.
	ThreadedOverlap
	// GPUResident is §IV-E: single GPU, problem resident in device memory.
	GPUResident
	// GPUBulkSync is §IV-F: GPU computation with bulk-synchronous MPI.
	GPUBulkSync
	// GPUStreams is §IV-G: GPU computation with MPI overlap via CUDA
	// streams.
	GPUStreams
	// HybridBulkSync is §IV-H: CPU and GPU computation with
	// bulk-synchronous MPI (box decomposition).
	HybridBulkSync
	// HybridOverlap is §IV-I: CPU and GPU computation partitioned for
	// overlap with nonblocking MPI and CPU-GPU communication.
	HybridOverlap

	numKinds

	// WideHaloExt is this reproduction's extension beyond the paper: a
	// communication-avoiding variant of the bulk-synchronous
	// implementation that exchanges halos of width W once every W steps
	// and redundantly computes shrinking extended regions in between,
	// trading extra flops for W-fold fewer messages. It is not one of the
	// paper's nine implementations and is excluded from Kinds().
	WideHaloExt Kind = numKinds
)

// Kinds returns all nine implementation kinds in paper order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// String returns a short stable identifier, usable as a CLI value.
func (k Kind) String() string {
	switch k {
	case SingleTask:
		return "single"
	case BulkSync:
		return "bulk"
	case NonblockingOverlap:
		return "nonblocking"
	case ThreadedOverlap:
		return "threaded"
	case GPUResident:
		return "gpu"
	case GPUBulkSync:
		return "gpu-bulk"
	case GPUStreams:
		return "gpu-streams"
	case HybridBulkSync:
		return "hybrid-bulk"
	case HybridOverlap:
		return "hybrid-overlap"
	case WideHaloExt:
		return "wide-halo"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Section returns the paper section describing the implementation, or
// "ext" for this reproduction's extension implementations.
func (k Kind) Section() string {
	if k >= 0 && k < numKinds {
		return "IV-" + string(rune('A'+int(k)))
	}
	if k == WideHaloExt {
		return "ext"
	}
	return "?"
}

// Describe returns the paper's name for the implementation.
func (k Kind) Describe() string {
	switch k {
	case SingleTask:
		return "single task"
	case BulkSync:
		return "bulk-synchronous MPI"
	case NonblockingOverlap:
		return "MPI using nonblocking communication for overlap"
	case ThreadedOverlap:
		return "MPI using OpenMP threading for overlap"
	case GPUResident:
		return "GPU resident"
	case GPUBulkSync:
		return "GPU with bulk-synchronous MPI"
	case GPUStreams:
		return "GPU with MPI overlap using CUDA streams"
	case HybridBulkSync:
		return "GPU and CPU computation with bulk-synchronous MPI"
	case HybridOverlap:
		return "GPU and CPU computation partitioned for overlap"
	case WideHaloExt:
		return "communication-avoiding bulk MPI with wide halos (extension)"
	}
	return "unknown"
}

// UsesMPI reports whether the implementation is distributed.
func (k Kind) UsesMPI() bool { return k != SingleTask && k != GPUResident }

// UsesGPU reports whether the implementation computes on the GPU.
func (k Kind) UsesGPU() bool { return k >= GPUResident && k < numKinds }

// ParseKind converts a string produced by Kind.String back to a Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range append(Kinds(), WideHaloExt) {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("core: unknown implementation %q", s)
}

// Problem is the paper's test case: linear advection of a Gaussian wave in
// a periodic cube (§II).
type Problem struct {
	N     grid.Dims     // grid extents (the paper uses 420³)
	C     grid.Velocity // constant uniform velocity
	Nu    float64       // Δ/δ; 0 selects the maximum stable value
	Steps int           // time steps to integrate
	Wave  grid.Gaussian // initial condition; zero value selects the default

	// Initial, when non-nil, overrides Wave as the starting state — used
	// to resume from a checkpoint. Its interior extents must equal N. It
	// is never serialised: a stored state is a checkpoint file.
	Initial *grid.Field `json:"-"`
	// T0 is the simulated time already integrated into Initial, so
	// verification against the analytic solution stays meaningful across
	// restarts.
	T0 float64
}

// DefaultProblem returns a laptop-scale instance of the test case with the
// paper's velocity structure: all components nonzero and distinct so every
// coefficient of Table I is exercised.
func DefaultProblem(n int, steps int) Problem {
	return Problem{
		N:     grid.Uniform(n),
		C:     grid.Velocity{X: 1, Y: 0.5, Z: 0.25},
		Steps: steps,
	}
}

// PaperProblem returns the paper's full-scale 420³ configuration.
func PaperProblem(steps int) Problem { return DefaultProblem(420, steps) }

// Normalize fills defaulted fields and validates the problem.
func (p Problem) Normalize() (Problem, error) {
	if p.N.X <= 2 || p.N.Y <= 2 || p.N.Z <= 2 {
		return p, fmt.Errorf("core: grid %v too small for the 3x3x3 stencil", p.N)
	}
	if p.Steps < 0 {
		return p, fmt.Errorf("core: negative step count %d", p.Steps)
	}
	if p.Nu == 0 {
		p.Nu = stencil.MaxStableNu(p.C)
	}
	if p.Nu <= 0 {
		return p, fmt.Errorf("core: non-positive nu %v", p.Nu)
	}
	if !stencil.Stable(p.C, p.Nu) {
		return p, fmt.Errorf("core: nu %v unstable for velocity %+v", p.Nu, p.C)
	}
	if p.Wave == (grid.Gaussian{}) {
		p.Wave = grid.DefaultGaussian(p.N)
	}
	if p.Initial != nil && p.Initial.N != p.N {
		return p, fmt.Errorf("core: initial state %v does not match grid %v", p.Initial.N, p.N)
	}
	return p, nil
}

// Flops returns the floating-point operations one full time step performs
// (53 per grid point, paper §II).
func (p Problem) Flops() float64 {
	return float64(p.N.Volume()) * stencil.FlopsPerPoint
}

// Options selects the parallel configuration of a run — the paper's tuning
// parameters.
type Options struct {
	Tasks   int // MPI tasks (ranks); 0 means 1
	Threads int // OpenMP threads per task; 0 means 1

	// BlockX and BlockY are the GPU thread-block dimensions (§V-C);
	// zero selects 32×8.
	BlockX, BlockY int

	// BoxThickness is the CPU shell thickness of the hybrid
	// implementations (§IV-H, Fig. 1); zero selects a one-point veneer,
	// the paper's usual optimum.
	BoxThickness int

	// HaloWidth is the exchange depth W of the communication-avoiding
	// extension implementation: halos of width W are exchanged once every
	// W steps. Zero selects 2.
	HaloWidth int

	// TasksPerGPU makes that many MPI tasks share one simulated device,
	// the paper's tunable (§IV-F: "we can have more than one MPI task
	// issuing calls to a particular GPU"). Zero gives every task its own
	// device. Shared devices serialize kernels and DMA in virtual time,
	// so sim.seconds reflects the contention.
	TasksPerGPU int

	// GPU selects the simulated device for GPU implementations.
	GPU GPUModel

	// Verify computes error norms against the analytic solution after the
	// run and the mass drift across it.
	Verify bool

	// Rec, when non-nil, records per-rank per-phase spans from every
	// substrate (CPU compute, MPI, PCIe, kernels) for the overlap report
	// and Chrome trace export — see internal/obs; the emulated devices
	// mirror their virtual kernel and PCIe timelines into it, so it is the
	// one record of what overlapped with what. Nil disables recording at
	// zero cost. Like Ctx, Rec does not participate in Canonical or
	// Fingerprint: tracing a run does not change what it computes.
	Rec *obs.Recorder `json:"-"`

	// Ctx, when non-nil, carries a cancellation signal into the run: the
	// functional implementations poll it between timesteps and abort with
	// its error, so a cancelled request stops a long simulation instead of
	// running it to completion. Nil means run to completion. Ctx does not
	// participate in Canonical or Fingerprint — two runs that differ only
	// in their context are the same computation.
	Ctx context.Context `json:"-"`

	// SkipGather, when set, leaves Result.Final nil: no rank sends its
	// interior to rank 0 and no global field is allocated. A caller that
	// reads only the timings, stats and norms (a daemon's simulate job)
	// sets it. Like Ctx and Rec, SkipGather does not participate in
	// Canonical or Fingerprint: it changes what a run returns, not what it
	// computes.
	SkipGather bool `json:"-"`
}

// Context returns the run's cancellation context, never nil.
func (o Options) Context() context.Context {
	if o.Ctx == nil {
		//advect:nolint ctxflow nil Ctx documents "run to completion"; Background is that default, not a severed caller signal
		return context.Background()
	}
	return o.Ctx
}

// CheckCancel returns the context's error if the options carry a cancelled
// context, nil otherwise. Implementations call it between timesteps.
func (o Options) CheckCancel() error {
	if o.Ctx == nil {
		return nil
	}
	return o.Ctx.Err()
}

// GPUModel names a simulated device generation.
type GPUModel int

const (
	// GPUDefault selects the Tesla C2050 (Yona's device).
	GPUDefault GPUModel = iota
	// GPUC1060 selects the Tesla C1060 with its slower PCIe link (Lens).
	GPUC1060
	// GPUC2050 selects the Tesla C2050 with the faster PCIe link (Yona).
	GPUC2050
)

func (g GPUModel) String() string {
	switch g {
	case GPUDefault, GPUC2050:
		return "c2050"
	case GPUC1060:
		return "c1060"
	}
	return fmt.Sprintf("GPUModel(%d)", int(g))
}

// ParseGPU converts a device name — what GPUModel.String prints — back to
// a GPUModel; the empty string selects the default device.
func ParseGPU(s string) (GPUModel, error) {
	switch s {
	case "", "c2050":
		return GPUC2050, nil
	case "c1060":
		return GPUC1060, nil
	}
	return 0, fmt.Errorf("core: unknown gpu %q (want c1060 or c2050)", s)
}

// Normalize fills defaults.
func (o Options) Normalize() Options {
	if o.Tasks <= 0 {
		o.Tasks = 1
	}
	if o.Threads <= 0 {
		o.Threads = 1
	}
	if o.BlockX <= 0 {
		o.BlockX = 32
	}
	if o.BlockY <= 0 {
		o.BlockY = 8
	}
	if o.BoxThickness <= 0 {
		o.BoxThickness = 1
	}
	if o.HaloWidth <= 0 {
		o.HaloWidth = 2
	}
	return o
}

// Result reports a completed run.
type Result struct {
	Kind  Kind
	Final *grid.Field // gathered global final state; nil when Options.SkipGather is set

	// Norms is the error against the analytic solution (Verify only).
	Norms grid.Norms
	// MassDrift is |Σu_final − Σu_initial|, which periodic Lax–Wendroff
	// conserves to roundoff (Verify only).
	MassDrift float64

	Elapsed time.Duration // wall-clock time of the stepping loop
	GF      float64       // analytic flops / Elapsed, in 1e9 flop/s

	// Stats carries implementation-specific counters (messages, bytes,
	// kernels, simulated times) for the harness to report.
	Stats map[string]float64
}

// Runner is one of the paper's implementations, ready to run problems.
type Runner interface {
	// Kind identifies the implementation.
	Kind() Kind
	// Run integrates the problem and returns the result. Implementations
	// must produce the same final state as the single-task reference up to
	// roundoff.
	Run(p Problem, o Options) (*Result, error)
}

// Factory builds a Runner.
type Factory func() Runner

var (
	regMu    sync.RWMutex
	registry = map[Kind]Factory{}
)

// Register installs a factory for kind. The implementations in
// internal/impl register themselves at init time; re-registration replaces
// the factory (useful for tests).
func Register(k Kind, f Factory) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[k] = f
}

// New constructs the registered Runner for kind.
func New(k Kind) (Runner, error) {
	regMu.RLock()
	f, ok := registry[k]
	regMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("core: no implementation registered for %v (import repro/internal/impl)", k)
	}
	return f(), nil
}
