package perf

import (
	"fmt"
	"math"

	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/stencil"
)

// gpuGeom collects the per-task GPU quantities of a configuration.
type gpuGeom struct {
	props gpusim.Props
	link  gpusim.Link

	interiorKernel float64 // one interior-kernel execution
	faceKernels    float64 // halo-unpack + wall-compute kernels
	launches       float64 // host-side launch overhead per step
	wallBytes      float64 // boundary shell, one direction
	haloBytes      float64 // halo shell, one direction
}

// newGPUGeom models the kernels of §IV-F/G over an n-point local domain.
func newGPUGeom(cfg Config, n grid.Dims) (gpuGeom, error) {
	gp := cfg.M.GPU
	g := gpuGeom{props: gp.Props, link: gp.Link}

	interior := stencil.Interior(n)
	l := gpusim.StencilLaunch(interior.Size.X, interior.Size.Y, interior.Size.Z, cfg.BlockX, cfg.BlockY)
	t, err := gpusim.KernelTime(gp.Props, l)
	if err != nil {
		return g, fmt.Errorf("perf: interior kernel: %w", err)
	}
	g.interiorKernel = t

	wallPts := n.Volume() - interior.Size.Volume()
	haloPts := exchangeValues(n)
	g.wallBytes = float64(wallPts) * 8
	g.haloBytes = float64(haloPts) * 8
	// Boundary work: the halo-unpack kernel moves haloPts values and the
	// wall kernels compute wallPts values; both are thin, memory-dominated
	// launches.
	g.faceKernels = memKernelTime(gp.Props, haloPts) + computeKernelTime(gp.Props, wallPts)
	g.launches = 8 * gp.Props.KernelLaunchSec
	return g, nil
}

// memKernelTime approximates a memory-movement kernel over pts values.
func memKernelTime(p gpusim.Props, pts int) float64 {
	// 16 B/point at roughly half effective bandwidth (scattered slabs).
	return float64(pts) * 16 / (p.MemBWGBs * 1e9 * 0.5)
}

// computeKernelTime approximates a thin compute kernel over pts points:
// stencil flops at the device's effective rate with poor locality.
func computeKernelTime(p gpusim.Props, pts int) float64 {
	return float64(pts) * stencil.FlopsPerPoint / (p.EffectiveDPGFlops() * 1e9 * 0.5)
}

// tasksPerGPU returns how many MPI tasks share one device: the node's
// tasks divided among its GPUs (the paper's clusters have one GPU per
// node; the §VI what-if of more GPUs per node divides the sharing).
func tasksPerGPU(cfg Config, l layout) float64 {
	g := cfg.M.GPUsPerNode
	if g < 1 {
		g = 1
	}
	t := float64(l.tasksPerNode) / float64(g)
	if t < 1 {
		t = 1
	}
	return t
}

// commTotalNet is the network-only exchange cost for the GPU
// implementations, whose CPU-side copy work is folded into the calibrated
// ShmMPIGBs pipeline instead: self-neighbor dimensions cost nothing here.
func commTotalNet(cfg Config, l layout) float64 {
	var total float64
	for dim := 0; dim < 3; dim++ {
		if l.decomp.P.Axis(dim) == 1 {
			continue
		}
		total += commPhase(cfg, l, dim)
	}
	return total
}

// modelGPUResident is §IV-E: one kernel per step, nothing else.
func modelGPUResident(cfg Config) (float64, map[string]float64, error) {
	gp := cfg.M.GPU
	l := gpusim.StencilLaunch(cfg.N.X, cfg.N.Y, cfg.N.Z, cfg.BlockX, cfg.BlockY)
	t, err := gpusim.KernelTime(gp.Props, l)
	if err != nil {
		return 0, nil, err
	}
	total := t + gp.Props.KernelLaunchSec
	return total, map[string]float64{"kernel": t, "launch": gp.Props.KernelLaunchSec}, nil
}

// modelGPUMPI covers §IV-F (overlap=false) and §IV-G (overlap=true).
//
// In both, every boundary byte follows the CPU-mediated pipeline the paper
// ultimately indicts (§V-E): GPU → PCIe → CPU pack/MPI/unpack → PCIe →
// GPU. The bulk version serializes it all with the kernels; the stream
// version hides it behind the interior kernel — but the pipeline itself is
// so slow that at small scale it dominates the step anyway, which is
// exactly why the paper measures 24 GF (F) and 35 GF (G) against 86 GF
// GPU-resident on one Yona node.
func modelGPUMPI(cfg Config, overlap bool) (float64, map[string]float64, error) {
	l, err := newLayout(cfg)
	if err != nil {
		return 0, nil, err
	}
	g, err := newGPUGeom(cfg, l.sub)
	if err != nil {
		return 0, nil, err
	}
	gp := cfg.M.GPU
	tpn := tasksPerGPU(cfg, l)
	share := gp.TaskShareSec * (tpn - 1)
	xferBytes := g.haloBytes + g.wallBytes
	// The CPU-side pipeline (pack, transport, unpack, driver handoffs) is
	// effectively serialized per GPU: the tasks sharing a device queue on
	// the same channel, so their pipe times add.
	cpuPipe := tpn * xferBytes / (gp.ShmMPIGBs * 1e9)
	mpiNet := commTotalNet(cfg, l)
	skew := syncSkew(cfg.M.Net, l.tasks)

	bd := map[string]float64{
		"interior": g.interiorKernel, "faces": g.faceKernels,
		"cpuPipe": cpuPipe, "mpi": mpiNet, "share": share, "sync": skew,
	}
	if !overlap {
		// §IV-F: pageable synchronous copies, everything serialized.
		pcie := xferBytes/(gp.PageableGBs*1e9) + 2*gp.Link.LatencySec
		total := tpn*(g.interiorKernel+g.faceKernels+pcie+g.launches) +
			cpuPipe + mpiNet + 2*gp.PhaseSyncSec + share + skew
		bd["pcie"] = pcie
		return total, bd, nil
	}
	// §IV-G: interior kernel on stream 1; halo upload, face kernels, and
	// boundary download on stream 2, concurrent with the MPI pipeline.
	pcie := xferBytes/(gp.Link.GBs*1e9) + 2*gp.Link.LatencySec
	chain := cpuPipe + mpiNet + tpn*pcie
	var total float64
	if gp.Props.ConcurrentKernels {
		chain += tpn * g.faceKernels
		total = math.Max(tpn*g.interiorKernel, chain)
	} else {
		// Kernels serialize on the device: the boundary kernels run after
		// the interior kernel even from another stream.
		total = math.Max(tpn*g.interiorKernel, chain) + tpn*g.faceKernels
	}
	total += gp.PhaseSyncSec + tpn*g.launches + share + skew
	bd["pcie"] = pcie
	bd["chain"] = chain
	return total, bd, nil
}

// modelHybrid covers §IV-H (overlap=false) and §IV-I (overlap=true): the
// box decomposition of Fig. 1 with the GPU computing the inner block and
// the CPU the shell of thickness cfg.BoxThickness.
func modelHybrid(cfg Config, overlap bool) (float64, map[string]float64, error) {
	l, err := newLayout(cfg)
	if err != nil {
		return 0, nil, err
	}
	box, err := grid.NewBoxSplit(l.sub, cfg.BoxThickness)
	if err != nil {
		return 0, nil, err
	}
	inner := box.Inner().Size
	gp := cfg.M.GPU
	node := cfg.M.Node
	t := cfg.Threads
	tpn := tasksPerGPU(cfg, l)
	share := gp.TaskShareSec * (tpn - 1)
	skew := syncSkew(cfg.M.Net, l.tasks)

	// GPU block: interior kernel plus thin face kernels over the block's
	// outer layer.
	blockInterior := stencil.Interior(inner)
	lk := gpusim.StencilLaunch(blockInterior.Size.X, blockInterior.Size.Y, blockInterior.Size.Z, cfg.BlockX, cfg.BlockY)
	kt, err := gpusim.KernelTime(gp.Props, lk)
	if err != nil {
		return 0, nil, err
	}
	blockWallPts := inner.Volume() - blockInterior.Size.Volume()
	ringIn := float64(exchangeValues(inner)) * 8 // the block's halo shell, up
	ringOut := float64(blockWallPts) * 8         // the block's outer layer, down
	gpuBlock := kt + memKernelTime(gp.Props, int(ringIn/8)) + computeKernelTime(gp.Props, blockWallPts) +
		8*gp.Props.KernelLaunchSec

	// CPU shell: split into the per-dimension wall parts away from the
	// MPI halos and the outer boundary layer.
	shellPts := l.sub.Volume() - inner.Volume()
	boundaryPts := l.sub.Volume() - stencil.Interior(l.sub).Size.Volume()
	innerWallPts := shellPts - boundaryPts
	if innerWallPts < 0 {
		innerWallPts = 0
	}
	outer := cpuCompute(node, boundaryPts, t) * boundaryPenalty
	cp := copyStep(node, shellPts, t)
	pack := packCost(node, l.sub, t)
	omp := ompRegions(node, 14, t)

	bd := map[string]float64{
		"gpuBlock": gpuBlock, "outer": outer, "copy": cp, "pack": pack,
		"omp": omp, "share": share, "sync": skew,
	}

	if !overlap {
		// §IV-H: synchronous inner exchange over pageable copies, then
		// MPI, then CPU and GPU compute concurrently.
		ring := (ringIn+ringOut)/(gp.PageableGBs*1e9) + 2*gp.Link.LatencySec + 2*gp.PhaseSyncSec
		mpiT := commTotal(cfg, l)
		shell := cpuCompute(node, innerWallPts, t) + outer
		total := tpn*ring + mpiT + math.Max(tpn*gpuBlock+share, shell) +
			cp + pack + omp + skew
		bd["ring"] = ring
		bd["mpi"] = mpiT
		bd["shell"] = shell
		return total, bd, nil
	}

	// §IV-I: three concurrent lanes.
	// Lane 1: GPU interior kernel(s), one per task sharing the device.
	gpuLane := tpn*kt + share
	// Lane 2: stream-2 chain — pinned ring transfers and block face
	// kernels (they overlap the interior kernel only on devices with
	// concurrent kernels).
	s2 := tpn * ((ringIn+ringOut)/(gp.Link.GBs*1e9) + 2*gp.Link.LatencySec +
		memKernelTime(gp.Props, int(ringIn/8)) + computeKernelTime(gp.Props, blockWallPts) +
		6*gp.Props.KernelLaunchSec)
	if !gp.Props.ConcurrentKernels {
		// Face kernels queue behind the interior kernels.
		gpuLane += tpn * computeKernelTime(gp.Props, blockWallPts)
	}
	// Lane 3: CPU — per-dimension MPI overlapped with that dimension's
	// wall interior points, then the outer boundary.
	f := cfg.M.Net.OffloadFraction
	wallByDim := hybridWallSplit(l.sub, cfg.BoxThickness)
	var cpuLane float64
	for dim := 0; dim < 3; dim++ {
		wallT := cpuCompute(node, wallByDim[dim], t)
		comm := commPhase(cfg, l, dim)
		hidden := math.Min(comm*f, wallT)
		cpuLane += wallT + (comm - hidden)
	}
	cpuLane += outer + pack
	total := math.Max(gpuLane, math.Max(s2, cpuLane)) +
		cp + omp + gp.PhaseSyncSec + skew
	bd["gpuLane"] = gpuLane
	bd["stream2"] = s2
	bd["cpuLane"] = cpuLane
	return total, bd, nil
}

// hybridWallSplit returns the per-dimension interior wall volumes (wall
// points whose stencil reads no MPI halo) of a thickness-t shell on an
// n-point local domain.
func hybridWallSplit(n grid.Dims, thickness int) [3]int {
	box := grid.BoxSplit{Local: n, T: thickness}
	interior := stencil.Interior(n)
	var out [3]int
	for dim := 0; dim < 3; dim++ {
		for _, w := range box.WallsByDim(dim) {
			out[dim] += grid.Intersect(w, interior).Volume()
		}
	}
	return out
}
