// Package perf estimates the per-step execution time of each of the
// paper's nine implementations on the paper's four machines, at any core
// count — the analytic timeline models behind the reproduction of Figures
// 3-6 and 9-12. Functional correctness is established by internal/impl;
// this package reproduces the *performance shapes*: which implementation
// wins where, how the optimum threads-per-task moves with core count, and
// why the full-overlap hybrid implementation approaches GPU-resident
// throughput.
//
// Each model composes the machine constants of internal/machine and the
// device model of internal/gpusim with explicit overlap algebra: bulk
// implementations add component times; overlap implementations take
// maxima over the components they run concurrently.
package perf

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/stencil"
)

// Config selects one point in the paper's tuning space.
type Config struct {
	M    *machine.Machine
	Kind core.Kind

	Cores   int // total CPU cores occupied
	Threads int // OpenMP threads per MPI task

	N grid.Dims // global grid (the paper's is 420³)

	BlockX, BlockY int // GPU thread-block size
	BoxThickness   int // CPU shell thickness (hybrid implementations)
	HaloWidth      int // exchange depth W (wide-halo extension)
}

// PaperGrid is the paper's global grid.
func PaperGrid() grid.Dims { return grid.Uniform(420) }

// Estimate is a modelled per-step timing.
type Estimate struct {
	Config  Config
	StepSec float64
	GF      float64
	// Breakdown holds the component times (seconds) the step was composed
	// from; overlapped components can sum to more than StepSec.
	Breakdown map[string]float64
}

// Evaluate runs the model for one configuration.
func Evaluate(cfg Config) (Estimate, error) {
	if cfg.N == (grid.Dims{}) {
		cfg.N = PaperGrid()
	}
	// The tuning parameters default as a functional run's do.
	o := core.Options{
		Threads: cfg.Threads, BlockX: cfg.BlockX, BlockY: cfg.BlockY,
		BoxThickness: cfg.BoxThickness, HaloWidth: cfg.HaloWidth,
	}.Normalize()
	cfg.Threads, cfg.BlockX, cfg.BlockY = o.Threads, o.BlockX, o.BlockY
	cfg.BoxThickness, cfg.HaloWidth = o.BoxThickness, o.HaloWidth
	if cfg.Kind == core.SingleTask || cfg.Kind == core.GPUResident {
		// Single-node implementations: core count is the node.
		if cfg.Cores <= 0 {
			cfg.Cores = cfg.M.Node.Cores()
		}
	}
	if err := cfg.M.Validate(cfg.Cores, cfg.Threads); err != nil {
		return Estimate{}, err
	}
	if cfg.Kind.UsesGPU() && !cfg.M.HasGPU() {
		return Estimate{}, fmt.Errorf("perf: %s has no GPUs for %v", cfg.M.Name, cfg.Kind)
	}

	var (
		sec float64
		bd  map[string]float64
		err error
	)
	switch cfg.Kind {
	case core.SingleTask:
		sec, bd, err = modelSingle(cfg)
	case core.BulkSync:
		sec, bd, err = modelBulk(cfg)
	case core.NonblockingOverlap:
		sec, bd, err = modelNonblocking(cfg)
	case core.ThreadedOverlap:
		sec, bd, err = modelThreaded(cfg)
	case core.GPUResident:
		sec, bd, err = modelGPUResident(cfg)
	case core.GPUBulkSync:
		sec, bd, err = modelGPUMPI(cfg, false)
	case core.GPUStreams:
		sec, bd, err = modelGPUMPI(cfg, true)
	case core.HybridBulkSync:
		sec, bd, err = modelHybrid(cfg, false)
	case core.HybridOverlap:
		sec, bd, err = modelHybrid(cfg, true)
	case core.WideHaloExt:
		sec, bd, err = modelWideHalo(cfg)
	default:
		err = fmt.Errorf("perf: unknown kind %v", cfg.Kind)
	}
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{Config: cfg, StepSec: sec, Breakdown: bd}
	est.GF = float64(cfg.N.Volume()) * stencil.FlopsPerPoint / sec / 1e9
	return est, nil
}

// --- shared geometry -----------------------------------------------------

// layout captures the per-task geometry of a distributed configuration.
type layout struct {
	tasks        int
	tasksPerNode int
	decomp       grid.Decomp
	sub          grid.Dims // largest (slowest) subdomain
}

func newLayout(cfg Config) (layout, error) {
	tasks := cfg.Cores / cfg.Threads
	if tasks < 1 {
		return layout{}, fmt.Errorf("perf: no tasks from %d cores / %d threads", cfg.Cores, cfg.Threads)
	}
	minDim := min3(cfg.N.X, cfg.N.Y, cfg.N.Z)
	if tasks > minDim*minDim*minDim {
		return layout{}, fmt.Errorf("perf: %d tasks too many for %v", tasks, cfg.N)
	}
	d, err := grid.Decompose(cfg.N, tasks)
	if err != nil {
		return layout{}, fmt.Errorf("perf: %w", err)
	}
	sub := grid.Dims{
		X: ceilDiv(cfg.N.X, d.P.X),
		Y: ceilDiv(cfg.N.Y, d.P.Y),
		Z: ceilDiv(cfg.N.Z, d.P.Z),
	}
	tpn := cfg.M.Node.Cores() / cfg.Threads
	if tasks < tpn {
		tpn = tasks
	}
	if tpn < 1 {
		tpn = 1
	}
	return layout{tasks: tasks, tasksPerNode: tpn, decomp: d, sub: sub}, nil
}

// --- CPU cost primitives --------------------------------------------------

// numaEff returns the compute efficiency of a t-thread team on the node:
// the NUMA penalty for spanning memory domains combined with the team's
// scheduling-imbalance slope.
func numaEff(n machine.Node, t int) float64 {
	eff := 1 - n.ThreadEffSlope*float64(t-1)
	domains := ceilDiv(t, n.CoresPerNUMADomain())
	if domains > 1 {
		eff *= math.Pow(n.NUMAEfficiency, float64(domains-1))
	}
	return eff
}

// cpuCompute returns the time for a t-thread team to apply the stencil to
// pts points (compute only, no copy step).
func cpuCompute(n machine.Node, pts, t int) float64 {
	rate := float64(t) * n.StencilGFPerCore * 1e9 * numaEff(n, t)
	return float64(pts) * stencil.FlopsPerPoint / rate
}

// copyStep returns the time of the paper's Step 3 (copy new state to
// current state) for pts points.
func copyStep(n machine.Node, pts, t int) float64 {
	return cpuCompute(n, pts, t) * n.CopyFraction
}

// ompRegions returns the fork/join overhead of r parallel regions.
func ompRegions(n machine.Node, r, t int) float64 {
	return float64(r) * (n.OMPRegionBaseSec + n.OMPRegionPerThreadSec*float64(t))
}

// packCost returns the time to pack and unpack the full halo surface once,
// with the copies parallelized over the team.
func packCost(n machine.Node, sub grid.Dims, t int) float64 {
	bytes := float64(exchangeValues(sub)) * 8 * 2 // pack + unpack
	return bytes / (n.PackGBs * 1e9 * float64(t))
}

// exchangeValues counts the values one task sends per step: both faces in
// each dimension, with the halo-widened ranges of the serialized exchange.
// They are as many as the points of the one-point halo shell it fills.
func exchangeValues(sub grid.Dims) int {
	return 2 * (faceValues(sub, 0) + faceValues(sub, 1) + faceValues(sub, 2))
}

// faceValues is the per-message value count in dimension dim.
func faceValues(sub grid.Dims, dim int) int { return grid.Layer(sub, 1, dim, 0, 1).Volume() }

// commPhase returns the network time of one dimension's exchange: two
// messages in flight, sharing the node's injection bandwidth with the
// other tasks on the node. Tasks that are their own neighbor in the
// dimension pay only a local copy.
func commPhase(cfg Config, l layout, dim int) float64 {
	bytes := float64(faceValues(l.sub, dim)) * 8
	if l.decomp.P.Axis(dim) == 1 {
		// Self-neighbor: periodic wrap through local memory.
		return 2 * bytes / (cfg.M.Node.PackGBs * 1e9)
	}
	net := cfg.M.Net
	bwPerTask := net.BandwidthGBs * 1e9 / float64(l.tasksPerNode)
	inject := 2 * float64(l.tasksPerNode) * net.InjectionSec
	return net.LatencySec + 2*bytes/bwPerTask + 4*net.MsgCPUSec + inject
}

// commFixed is the per-phase fixed (non-hideable) message cost.
func commFixed(cfg Config, l layout) float64 {
	net := cfg.M.Net
	return net.LatencySec + 4*net.MsgCPUSec + 2*float64(l.tasksPerNode)*net.InjectionSec
}

// commTotal is the full three-phase exchange.
func commTotal(cfg Config, l layout) float64 {
	return commPhase(cfg, l, 0) + commPhase(cfg, l, 1) + commPhase(cfg, l, 2)
}

// syncSkew models the per-step synchronization cost of a P-task
// neighbor-coupled iteration (barrier-like skew propagation plus system
// jitter at scale).
func syncSkew(net machine.Interconnect, tasks int) float64 {
	if tasks <= 1 {
		return 0
	}
	return net.BarrierBaseSec + net.BarrierPerLevelSec*math.Log2(float64(tasks))
}

// --- CPU implementation models ---------------------------------------------

// modelSingle is §IV-A on one node.
func modelSingle(cfg Config) (float64, map[string]float64, error) {
	n := cfg.M.Node
	t := cfg.Threads
	pts := cfg.N.Volume()
	comp := cpuCompute(n, pts, t)
	cp := copyStep(n, pts, t)
	halo := 2 * float64(exchangeValues(cfg.N)) * 8 / (n.PackGBs * 1e9 * float64(t))
	omp := ompRegions(n, 5, t)
	total := comp + cp + halo + omp
	return total, map[string]float64{
		"compute": comp, "copy": cp, "halo": halo, "omp": omp,
	}, nil
}

// modelBulk is §IV-B: everything serialized.
func modelBulk(cfg Config) (float64, map[string]float64, error) {
	l, err := newLayout(cfg)
	if err != nil {
		return 0, nil, err
	}
	n := cfg.M.Node
	t := cfg.Threads
	pts := l.sub.Volume()
	comp := cpuCompute(n, pts, t)
	cp := copyStep(n, pts, t)
	comm := commTotal(cfg, l)
	pack := packCost(n, l.sub, t)
	omp := ompRegions(n, 8, t)
	sync := syncSkew(cfg.M.Net, l.tasks)
	total := comp + cp + comm + pack + omp + sync
	return total, map[string]float64{
		"compute": comp, "copy": cp, "comm": comm, "pack": pack, "omp": omp, "sync": sync,
	}, nil
}

// boundaryPenalty is the per-point slowdown of computing the thin boundary
// slabs separately: the x walls are strided with unit-length rows, the y
// walls short rows, and the separate pass re-touches cache lines. The z
// walls are full contiguous planes, so the volume-weighted factor is well
// below the x-wall worst case. It models the paper's codes, which compute
// every wall after the exchange, and is not fit to internal/impl's
// nonblocking runner, which computes most of its x walls inside whole rows.
const boundaryPenalty = 1.25

// interiorSplitPenalty is the cache cost of computing the interior in
// three separate z slabs instead of one sweep.
const interiorSplitPenalty = 1.01

// guidedComputePenalty is the slowdown of schedule(guided) relative to the
// static schedule on the interior sweep (§IV-D).
const guidedComputePenalty = 1.15

// masterCommPenalty is the slowdown of the master thread's blocking MPI
// exchange while the rest of the team saturates the memory system.
const masterCommPenalty = 1.3

// modelNonblocking is §IV-C: per-dimension nonblocking exchange bracketing
// interior thirds, boundary afterwards.
func modelNonblocking(cfg Config) (float64, map[string]float64, error) {
	l, err := newLayout(cfg)
	if err != nil {
		return 0, nil, err
	}
	n := cfg.M.Node
	t := cfg.Threads
	interior := stencil.Interior(l.sub).Volume()
	boundary := l.sub.Volume() - interior

	f := cfg.M.Net.OffloadFraction
	thirds := cpuCompute(n, interior, t) * interiorSplitPenalty / 3
	var phases float64
	for dim := 0; dim < 3; dim++ {
		// Only the bandwidth (streaming) portion of a message can make
		// progress on the NIC while the CPU computes; the per-message
		// fixed costs — latency, matching, injection serialization — are
		// paid at the Wait regardless. This is why overlap helps while
		// messages are large (low core counts) and stops helping when the
		// exchange becomes latency-bound (high core counts), the paper's
		// Figure 3/4 crossover.
		comm := commPhase(cfg, l, dim)
		fixed := commFixed(cfg, l)
		bwPart := comm - fixed
		if bwPart < 0 {
			bwPart = 0
		}
		hidden := math.Min(bwPart*f, thirds)
		phases += thirds + (comm - hidden)
	}
	// Nonblocking requests cost extra CPU time to post and complete.
	reqOverhead := 8 * cfg.M.Net.MsgCPUSec
	sync := syncSkew(cfg.M.Net, l.tasks)
	bnd := cpuCompute(n, boundary, t) * boundaryPenalty
	cp := copyStep(n, l.sub.Volume(), t)
	pack := packCost(n, l.sub, t)
	omp := ompRegions(n, 16, t)
	total := phases + reqOverhead + bnd + cp + pack + omp + sync
	return total, map[string]float64{
		"phases": phases, "boundary": bnd, "copy": cp, "pack": pack, "omp": omp,
		"requests": reqOverhead, "sync": sync,
	}, nil
}

// modelThreaded is §IV-D: master-thread communication with guided
// scheduling.
func modelThreaded(cfg Config) (float64, map[string]float64, error) {
	l, err := newLayout(cfg)
	if err != nil {
		return 0, nil, err
	}
	n := cfg.M.Node
	t := cfg.Threads
	interior := stencil.Interior(l.sub).Volume()
	boundary := l.sub.Volume() - interior

	// Master does the whole exchange, including packing, single threaded —
	// and does it while the other threads saturate the memory system, so
	// the communication itself runs degraded.
	comm := (commTotal(cfg, l) + packCost(n, l.sub, 1)) * masterCommPenalty
	// Guided scheduling interleaves chunks across threads, losing the
	// static schedule's cache streaming; the paper finds this
	// implementation "consistently lags in performance".
	w1 := cpuCompute(n, interior, 1) * guidedComputePenalty
	var region float64
	if t == 1 {
		region = comm + w1
	} else {
		region = math.Max(comm, (w1+comm)/float64(t))
	}
	// Guided dispatch overhead: chunks shrink geometrically from
	// remaining/t down to the floor.
	rows := stencil.Rows(stencil.Interior(l.sub))
	chunks := float64(t) * math.Max(1, math.Log2(float64(rows)/float64(t)+2))
	guided := chunks * n.GuidedChunkSec
	bnd := cpuCompute(n, boundary, t) * boundaryPenalty
	cp := copyStep(n, l.sub.Volume(), t)
	omp := ompRegions(n, 12, t)
	sync := syncSkew(cfg.M.Net, l.tasks)
	total := region + guided + bnd + cp + omp + sync
	return total, map[string]float64{
		"region": region, "guided": guided, "boundary": bnd, "copy": cp, "omp": omp, "sync": sync,
	}, nil
}

// modelWideHalo is the communication-avoiding extension: one W-deep
// exchange per W steps, redundant computation on shrinking extended
// regions in between. Per-message latency is paid 1/W as often; bytes per
// exchange grow W-fold; compute grows by the extended-region surface terms.
func modelWideHalo(cfg Config) (float64, map[string]float64, error) {
	l, err := newLayout(cfg)
	if err != nil {
		return 0, nil, err
	}
	W := cfg.HaloWidth
	if l.sub.X < W || l.sub.Y < W || l.sub.Z < W {
		return 0, nil, fmt.Errorf("perf: halo width %d exceeds subdomain %v", W, l.sub)
	}
	n := cfg.M.Node
	t := cfg.Threads

	// One W-deep exchange: same message count as one phase set, W-fold
	// payload (per-dimension widened ranges grow with 2W, folded into the
	// same bandwidth term).
	var comm float64
	for dim := 0; dim < 3; dim++ {
		bytes := float64(faceValues(l.sub, dim)) * 8 * float64(W)
		if l.decomp.P.Axis(dim) == 1 {
			comm += 2 * bytes / (n.PackGBs * 1e9)
			continue
		}
		net := cfg.M.Net
		bwPerTask := net.BandwidthGBs * 1e9 / float64(l.tasksPerNode)
		comm += net.LatencySec + 2*bytes/bwPerTask + 4*net.MsgCPUSec +
			2*float64(l.tasksPerNode)*net.InjectionSec
	}
	pack := packCost(n, l.sub, t) * float64(W)

	// Inner steps compute extended regions of e = W-1-k points.
	var compute, cp float64
	for k := 0; k < W; k++ {
		e := W - 1 - k
		pts := (l.sub.X + 2*e) * (l.sub.Y + 2*e) * (l.sub.Z + 2*e)
		compute += cpuCompute(n, pts, t)
		cp += copyStep(n, pts, t)
	}
	omp := ompRegions(n, 8*W, t)
	sync := syncSkew(cfg.M.Net, l.tasks)

	total := (comm + pack + compute + cp + omp + sync) / float64(W)
	return total, map[string]float64{
		"comm/step": comm / float64(W), "compute/step": compute / float64(W),
		"copy/step": cp / float64(W), "pack/step": pack / float64(W),
		"omp/step": omp / float64(W), "sync": sync / float64(W),
	}, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
