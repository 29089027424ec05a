// Package obs is the unified phase-tracing layer of the reproduction: a
// low-overhead span recorder shared by the CPU runtime (internal/par), the
// message-passing runtime (internal/mpi), the simulated GPU
// (internal/gpusim), and every runner in internal/impl. Each span names a
// canonical phase of the paper's algorithms — interior compute, boundary
// compute, halo pack/unpack, MPI traffic, PCIe copies, kernels — tagged
// with the rank and timestep that produced it.
//
// The recorder is nil-safe: a nil *Recorder is a valid, disabled recorder
// on which every method is a no-op, so instrumented code never branches on
// an "enabled" flag and the disabled path allocates nothing (asserted by
// BenchmarkRecorderDisabled and the ci.sh overhead gate). All methods are
// safe for concurrent use; ranks and team workers record into one shared
// recorder under -race.
//
// Spans carry one of two time bases. Wall spans (CPU compute, MPI, packing)
// are measured with the host monotonic clock relative to the recorder's
// epoch. Sim spans (kernels, PCIe copies) carry the simulated device's
// virtual timestamps, bridged from internal/gpusim. Overlap is only ever
// computed between spans of the same rank and the same base — mixing bases
// would manufacture meaningless overlap.
package obs

import (
	"sort"
	"sync"
	"time"
)

// Base identifies the clock a span was measured against.
type Base uint8

const (
	// BaseWall marks spans timed with the host monotonic clock.
	BaseWall Base = iota
	// BaseSim marks spans carrying simulated-device virtual time.
	BaseSim
)

func (b Base) String() string {
	if b == BaseSim {
		return "sim"
	}
	return "wall"
}

// Phase names one canonical activity of the paper's algorithms.
type Phase uint8

const (
	// PhaseInterior is stencil compute on interior points (CPU).
	PhaseInterior Phase = iota
	// PhaseBoundary is stencil compute on boundary/shell points (CPU).
	PhaseBoundary
	// PhaseHaloPack is gathering faces into contiguous send buffers.
	PhaseHaloPack
	// PhaseHaloUnpack is scattering received faces back into the halo.
	PhaseHaloUnpack
	// PhaseMPISend is a blocking or eager send call.
	PhaseMPISend
	// PhaseMPIRecv is a blocking receive call.
	PhaseMPIRecv
	// PhaseMPIWait is completing a nonblocking request.
	PhaseMPIWait
	// PhaseMPIExchange is the whole in-flight window of one halo exchange,
	// from posting the receives to completing the waits. Compute recorded
	// inside this window is communication the run actually hid.
	PhaseMPIExchange
	// PhaseH2D is a host-to-device PCIe copy (sim time).
	PhaseH2D
	// PhaseD2H is a device-to-host PCIe copy (sim time).
	PhaseD2H
	// PhaseKernel is device kernel execution (sim time).
	PhaseKernel
	// PhaseLaunch is host-side work issuing device operations.
	PhaseLaunch
	// PhaseCopy is the end-of-step state copy (next -> current).
	PhaseCopy
	// PhaseRegion is a par.Team parallel region (any schedule).
	PhaseRegion

	// The remaining phases are the advectd request lifecycle. They are
	// recorded on the synthetic service rank (RankService), so a traced
	// job's export shows its queue wait and worker handoff on the same
	// timeline as the per-rank runner phases above.

	// PhaseHTTPReceive is admission: validate, cache probe, enqueue.
	PhaseHTTPReceive
	// PhaseQueueWait is the gap between enqueue and a worker's claim.
	PhaseQueueWait
	// PhaseCacheLookup is the result-cache probe during admission.
	PhaseCacheLookup
	// PhaseWorkerExec is a worker executing the job body.
	PhaseWorkerExec
	// PhaseResultEncode is rendering the result document.
	PhaseResultEncode

	// The gw.* phases are the advectgw routing lifecycle, recorded on the
	// synthetic gateway rank (RankGateway) and kept by the gateway, which
	// joins them to the owner's spans when the trace is read, so the
	// export shows the routing decision, cross-node hops, and any failover
	// ahead of the service and runner tracks.

	// PhaseGWRoute is the ring lookup and member-state walk picking a node.
	PhaseGWRoute
	// PhaseGWSubmit is dispatching the submission to one node (the label
	// names the node; one span per attempt).
	PhaseGWSubmit
	// PhaseGWRetry is honoring a brief Retry-After in place at the owner.
	PhaseGWRetry
	// PhaseGWFailover is abandoning a shedding/unreachable node for the
	// next ring successor (the label names the abandoned node).
	PhaseGWFailover
	// PhaseGWResubmit is re-submitting a dead node's in-flight job to a
	// survivor (the label names the dead node).
	PhaseGWResubmit
	// PhaseGWHandoff is the gateway->node hop: from the last span the
	// gateway recorded to the owning node's epoch. Its label carries the
	// measured gateway/node clock offset.
	PhaseGWHandoff

	numPhases
)

// RankService is the synthetic rank service-level spans are recorded under,
// keeping the request lifecycle on its own track, separate from the
// simulation ranks (which are always >= 0).
const RankService = -1

// RankGateway is the synthetic rank gateway-side spans are recorded under,
// one track above the service rank.
const RankGateway = -2

var phaseNames = [numPhases]string{
	PhaseInterior:     "compute.interior",
	PhaseBoundary:     "compute.boundary",
	PhaseHaloPack:     "halo.pack",
	PhaseHaloUnpack:   "halo.unpack",
	PhaseMPISend:      "mpi.send",
	PhaseMPIRecv:      "mpi.recv",
	PhaseMPIWait:      "mpi.wait",
	PhaseMPIExchange:  "mpi.exchange",
	PhaseH2D:          "pcie.h2d",
	PhaseD2H:          "pcie.d2h",
	PhaseKernel:       "gpu.kernel",
	PhaseLaunch:       "gpu.launch",
	PhaseCopy:         "copy",
	PhaseRegion:       "par.region",
	PhaseHTTPReceive:  "svc.receive",
	PhaseQueueWait:    "svc.queue",
	PhaseCacheLookup:  "svc.cache",
	PhaseWorkerExec:   "svc.exec",
	PhaseResultEncode: "svc.encode",
	PhaseGWRoute:      "gw.route",
	PhaseGWSubmit:     "gw.submit",
	PhaseGWRetry:      "gw.retry",
	PhaseGWFailover:   "gw.failover",
	PhaseGWResubmit:   "gw.resubmit",
	PhaseGWHandoff:    "gw.handoff",
}

// AllPhases lists every defined phase in declaration order — the span
// vocabulary, for docs and exhaustive tests.
func AllPhases() []Phase {
	out := make([]Phase, numPhases)
	for i := range out {
		out[i] = Phase(i)
	}
	return out
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "phase(?)"
}

// Base returns the clock this phase is measured against: kernels and PCIe
// copies live in simulated device time, everything else in wall time.
func (p Phase) Base() Base {
	switch p {
	case PhaseH2D, PhaseD2H, PhaseKernel:
		return BaseSim
	}
	return BaseWall
}

// Span is one recorded interval. Start and End are seconds: since the
// recorder's epoch for wall phases, virtual device time for sim phases.
// Step is the timestep that produced the span, or -1 when not attributable
// to a single step (device-side spans, post-loop collectives). Node is
// empty for spans recorded by the local process; a cross-process merge
// (the gateway's join or dead-node harvest) stamps it with the
// originating node's id so the export keeps each node's tracks apart.
type Span struct {
	Rank  int     `json:"rank"`
	Step  int     `json:"step"`
	Phase Phase   `json:"phase"`
	Label string  `json:"label,omitempty"`
	Node  string  `json:"node,omitempty"`
	Start float64 `json:"start"`
	End   float64 `json:"end"`
}

// Recorder accumulates spans from many goroutines. The zero of its pointer
// type — nil — is a valid disabled recorder; every method no-ops on it.
type Recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []Span
}

// NewRecorder returns an enabled recorder whose wall clock starts now.
func NewRecorder() *Recorder {
	return &Recorder{epoch: time.Now()}
}

// Enabled reports whether spans will actually be kept.
func (r *Recorder) Enabled() bool { return r != nil }

// Clock returns seconds elapsed since the recorder's epoch (0 if disabled).
// Use it to timestamp a window whose span is emitted later via Add.
func (r *Recorder) Clock() float64 {
	if r == nil {
		return 0
	}
	return time.Since(r.epoch).Seconds()
}

// Add records one span directly. Use it for bridged sim spans and for wall
// windows timed with Clock; prefer Begin/End for simple bracketing.
func (r *Recorder) Add(rank, step int, phase Phase, label string, start, end float64) {
	if r == nil || end < start {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, Span{Rank: rank, Step: step, Phase: phase, Label: label, Start: start, End: end})
	r.mu.Unlock()
}

// Active is an open span returned by Begin and closed by End. It is a
// value; the disabled recorder hands out inert zero values.
type Active struct {
	r     *Recorder
	start float64
	rank  int32
	step  int32
	phase Phase
	label string
}

// Begin opens a wall-clock span. End closes it. On a disabled recorder
// both are no-ops and neither allocates nor reads the clock.
func (r *Recorder) Begin(rank, step int, phase Phase, label string) Active {
	if r == nil {
		return Active{}
	}
	return Active{r: r, start: r.Clock(), rank: int32(rank), step: int32(step), phase: phase, label: label}
}

// End closes the span at the current clock reading.
func (a Active) End() {
	if a.r == nil {
		return
	}
	a.r.Add(int(a.rank), int(a.step), a.phase, a.label, a.start, a.r.Clock())
}

// Len returns the number of spans recorded so far.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Spans returns a copy of all recorded spans ordered by (node, rank,
// phase, start); locally recorded spans (empty node) sort first. Safe to
// call while recording continues.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]Span, len(r.spans))
	copy(out, r.spans)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Node != out[j].Node {
			return out[i].Node < out[j].Node
		}
		if out[i].Rank != out[j].Rank {
			return out[i].Rank < out[j].Rank
		}
		if out[i].Phase != out[j].Phase {
			return out[i].Phase < out[j].Phase
		}
		return out[i].Start < out[j].Start
	})
	return out
}
