// Package machine describes the four computers of the paper's Table II —
// JaguarPF (Cray XT5), Hopper II (Cray XE6), Lens (DDR-Infiniband cluster
// with Tesla C1060 GPUs), and Yona (QDR-Infiniband cluster with Tesla
// C2050 GPUs) — as performance models: node compute rates, OpenMP region
// overheads, NUMA penalties, interconnect latency/bandwidth, and the
// CPU-GPU communication paths.
//
// The structural parameters come from Table II. The rate constants are
// calibrated to the paper's reported numbers (§V, especially the Yona
// single-node anchors in §V-E: GPU-resident 86 GF, bulk-sync GPU+MPI 24 GF,
// stream-overlap 35 GF, full CPU+GPU overlap 82 GF) so the reproduction's
// figures carry the paper's shapes; they are not microbenchmarks of the
// original hardware.
package machine

import (
	"fmt"

	"repro/internal/gpusim"
)

// Interconnect models the cluster network as seen by one MPI task.
type Interconnect struct {
	Name         string
	LatencySec   float64 // end-to-end small-message latency
	BandwidthGBs float64 // per-node injection bandwidth, shared by tasks
	MsgCPUSec    float64 // CPU cost to post one send or receive
	// InjectionSec is the NIC-side serialization cost per message: a
	// node's tasks queue on the injection engine, so many small tasks pay
	// more than a few large ones — one driver of the paper's observation
	// that more threads per task win at high core counts (Figs. 5-6).
	InjectionSec float64
	// OffloadFraction is how much of a nonblocking message's progress the
	// NIC makes without CPU involvement — the machine property that decides
	// whether MPI overlap (§IV-C) can actually hide anything.
	OffloadFraction float64
	// BarrierBaseSec and BarrierPerLevelSec model MPI_Barrier as a
	// dissemination barrier: base + perLevel·log2(P), plus system jitter
	// folded into the base at scale.
	BarrierBaseSec     float64
	BarrierPerLevelSec float64
}

// Node models one compute node's CPUs and memory system.
type Node struct {
	Sockets        int
	CoresPerSocket int
	ClockGHz       float64
	MemoryGB       int

	// NUMADomains is the number of memory domains threads can span; on
	// Hopper II each 12-core socket holds two 6-core dies, so 4 domains.
	NUMADomains int

	// StencilGFPerCore is the calibrated per-core sustained rate of the
	// 53-flop stencil loop (compute step only).
	StencilGFPerCore float64
	// CopyFraction is the cost of the paper's Step 3 (copy new state to
	// current state) relative to the compute step.
	CopyFraction float64
	// PackGBs is the rate at which a core packs or unpacks halo buffers.
	PackGBs float64
	// NUMAEfficiency multiplies the per-core rate when a thread team spans
	// more than one NUMA domain (applied once per extra domain).
	NUMAEfficiency float64
	// OMPRegionBaseSec and OMPRegionPerThreadSec model the cost of one
	// OpenMP parallel region (fork + barrier).
	OMPRegionBaseSec      float64
	OMPRegionPerThreadSec float64
	// GuidedChunkSec is the dispatch cost per guided-schedule chunk
	// (§IV-D pays this to let the master join late).
	GuidedChunkSec float64
	// ThreadEffSlope is the per-extra-thread efficiency loss of a thread
	// team (scheduling imbalance, shared-cache pressure): team efficiency
	// is 1 - slope·(t-1). It is what makes few threads per task best at
	// low core counts in Figures 5 and 6.
	ThreadEffSlope float64
}

// Cores returns the CPU cores per node.
func (n Node) Cores() int { return n.Sockets * n.CoresPerSocket }

// CoresPerNUMADomain returns the cores in one memory domain.
func (n Node) CoresPerNUMADomain() int {
	return n.Cores() / n.NUMADomains
}

// GPUPath models the CPU-GPU communication routes of a GPU node.
// The paper's decisive observation (§V-E) is that the path through which
// boundary data reaches MPI is enormously slower in the bulk-sync and
// stream implementations (pageable copies, pack/unpack, per-phase
// synchronization, tasks time-sharing the device) than the pinned
// stream-overlapped path of the full-overlap implementation.
type GPUPath struct {
	Props gpusim.Props
	Link  gpusim.Link // pinned, stream-ordered transfers (implementations G/I)

	// PageableGBs is the effective rate of synchronous copies from
	// pageable host arrays (implementation F/H's plain exchanges).
	PageableGBs float64
	// ShmMPIGBs is the effective rate of the CPU-side MPI pipeline the
	// GPU boundary data must traverse in F and G (transport + copies).
	ShmMPIGBs float64
	// PhaseSyncSec is the CPU-GPU synchronization cost paid per exchange
	// phase in the bulk implementations.
	PhaseSyncSec float64
	// TaskShareSec is the per-step context overhead each additional MPI
	// task sharing the device adds (pre-MPS time sharing).
	TaskShareSec float64
}

// Machine is one of the paper's four test systems.
type Machine struct {
	Name        string
	System      string // e.g. "Cray XT5"
	Nodes       int
	Node        Node
	Net         Interconnect
	MPIName     string
	GPU         *GPUPath // nil for the CPU-only Crays
	GPUsPerNode int

	// ThreadChoices are the OpenMP threads-per-task counts measured in the
	// paper for this machine.
	ThreadChoices []int
}

// Cores returns the machine's total CPU core count.
func (m *Machine) Cores() int { return m.Nodes * m.Node.Cores() }

// HasGPU reports whether the machine has GPUs.
func (m *Machine) HasGPU() bool { return m.GPU != nil && m.GPUsPerNode > 0 }

// CoresPerGPU returns CPU cores per GPU (the figure captions' "one GPU per
// N cores").
func (m *Machine) CoresPerGPU() int {
	if !m.HasGPU() {
		return 0
	}
	return m.Node.Cores() / m.GPUsPerNode
}

// Validate checks a (cores, threadsPerTask) configuration against the
// machine.
func (m *Machine) Validate(cores, threads int) error {
	if cores <= 0 || cores > m.Cores() {
		return fmt.Errorf("machine %s: %d cores out of range (max %d)", m.Name, cores, m.Cores())
	}
	if threads <= 0 || threads > m.Node.Cores() {
		return fmt.Errorf("machine %s: %d threads per task exceeds node cores %d",
			m.Name, threads, m.Node.Cores())
	}
	if cores%threads != 0 {
		return fmt.Errorf("machine %s: %d cores not divisible by %d threads per task",
			m.Name, cores, threads)
	}
	return nil
}

// JaguarPF is the Cray XT5 at OLCF: 18688 nodes of two 6-core 2.6 GHz
// Opterons on a SeaStar 2+ torus (Table II).
func JaguarPF() *Machine {
	return &Machine{
		Name:    "JaguarPF",
		System:  "Cray XT5",
		Nodes:   18688,
		MPIName: "Cray MPT 4.0.0",
		Node: Node{
			Sockets:               2,
			CoresPerSocket:        6,
			ClockGHz:              2.6,
			MemoryGB:              16,
			NUMADomains:           2,
			StencilGFPerCore:      0.85,
			CopyFraction:          0.35,
			PackGBs:               2.2,
			NUMAEfficiency:        0.93,
			OMPRegionBaseSec:      4.0e-6,
			OMPRegionPerThreadSec: 0.5e-6,
			GuidedChunkSec:        0.4e-6,
			ThreadEffSlope:        0.008,
		},
		Net: Interconnect{
			Name:               "Cray SeaStar 2+",
			LatencySec:         7e-6,
			InjectionSec:       1.6e-6,
			BandwidthGBs:       1.8,
			MsgCPUSec:          1.2e-6,
			OffloadFraction:    0.65,
			BarrierBaseSec:     12e-6,
			BarrierPerLevelSec: 3.0e-6,
		},
		ThreadChoices: []int{1, 2, 3, 6, 12},
	}
}

// HopperII is the Cray XE6 at NERSC: 6392 nodes of two 12-core 2.1 GHz
// Opterons (each socket two 6-core dies) on the Gemini interconnect.
func HopperII() *Machine {
	return &Machine{
		Name:    "Hopper II",
		System:  "Cray XE6",
		Nodes:   6392,
		MPIName: "Cray MPT 5.1.3",
		Node: Node{
			Sockets:               2,
			CoresPerSocket:        12,
			ClockGHz:              2.1,
			MemoryGB:              32,
			NUMADomains:           4,
			StencilGFPerCore:      0.72,
			CopyFraction:          0.35,
			PackGBs:               2.6,
			NUMAEfficiency:        0.94,
			OMPRegionBaseSec:      2.0e-6,
			OMPRegionPerThreadSec: 0.3e-6,
			GuidedChunkSec:        0.35e-6,
			ThreadEffSlope:        0.006,
		},
		Net: Interconnect{
			Name:               "Cray Gemini",
			LatencySec:         1.8e-6,
			InjectionSec:       0.9e-6,
			BandwidthGBs:       4.0,
			MsgCPUSec:          0.4e-6,
			OffloadFraction:    0.95,
			BarrierBaseSec:     8e-6,
			BarrierPerLevelSec: 1.2e-6,
		},
		ThreadChoices: []int{1, 2, 3, 6, 12, 24},
	}
}

// Lens is the OLCF analysis cluster: 31 nodes of four 4-core 2.3 GHz
// Opterons, DDR Infiniband, one Tesla C1060 per node.
func Lens() *Machine {
	return &Machine{
		Name:    "Lens",
		System:  "Infiniband cluster",
		Nodes:   31,
		MPIName: "OpenMPI 1.3.3",
		Node: Node{
			Sockets:               4,
			CoresPerSocket:        4,
			ClockGHz:              2.3,
			MemoryGB:              64,
			NUMADomains:           4,
			StencilGFPerCore:      0.62,
			CopyFraction:          0.35,
			PackGBs:               1.8,
			NUMAEfficiency:        0.92,
			OMPRegionBaseSec:      4.0e-6,
			OMPRegionPerThreadSec: 0.5e-6,
			GuidedChunkSec:        0.5e-6,
			ThreadEffSlope:        0.007,
		},
		Net: Interconnect{
			Name:               "DDR Infiniband",
			LatencySec:         3.5e-6,
			InjectionSec:       2.0e-6,
			BandwidthGBs:       1.4,
			MsgCPUSec:          1.5e-6,
			OffloadFraction:    0.30,
			BarrierBaseSec:     15e-6,
			BarrierPerLevelSec: 4e-6,
		},
		GPUsPerNode: 1,
		GPU: &GPUPath{
			Props:        gpusim.TeslaC1060(),
			Link:         gpusim.PCIeGen1(),
			PageableGBs:  1.0,
			ShmMPIGBs:    0.12,
			PhaseSyncSec: 0.8e-3,
			TaskShareSec: 1.2e-3,
		},
		ThreadChoices: []int{1, 2, 4, 8, 16},
	}
}

// Yona is the experimental OLCF cluster: 16 nodes of two 6-core 2.6 GHz
// Opterons, QDR Infiniband, one Tesla C2050 per node on a faster PCIe bus.
func Yona() *Machine {
	return &Machine{
		Name:    "Yona",
		System:  "Infiniband cluster",
		Nodes:   16,
		MPIName: "OpenMPI 1.7a1",
		Node: Node{
			Sockets:               2,
			CoresPerSocket:        6,
			ClockGHz:              2.6,
			MemoryGB:              32,
			NUMADomains:           2,
			StencilGFPerCore:      0.85,
			CopyFraction:          0.35,
			PackGBs:               2.2,
			NUMAEfficiency:        0.93,
			OMPRegionBaseSec:      4.0e-6,
			OMPRegionPerThreadSec: 0.5e-6,
			GuidedChunkSec:        0.45e-6,
			ThreadEffSlope:        0.008,
		},
		Net: Interconnect{
			Name:               "QDR Infiniband",
			LatencySec:         1.9e-6,
			InjectionSec:       1.4e-6,
			BandwidthGBs:       2.8,
			MsgCPUSec:          1.0e-6,
			OffloadFraction:    0.35,
			BarrierBaseSec:     10e-6,
			BarrierPerLevelSec: 2.5e-6,
		},
		GPUsPerNode: 1,
		GPU: &GPUPath{
			Props:        gpusim.TeslaC2050(),
			Link:         gpusim.PCIeGen2(),
			PageableGBs:  1.5,
			ShmMPIGBs:    0.165,
			PhaseSyncSec: 0.6e-3,
			TaskShareSec: 0.9e-3,
		},
		ThreadChoices: []int{1, 2, 3, 6, 12},
	}
}

// All returns the four machines in the paper's order.
func All() []*Machine {
	return []*Machine{JaguarPF(), HopperII(), Lens(), Yona()}
}

// ByName returns the machine with the given name (case-sensitive).
func ByName(name string) (*Machine, error) {
	for _, m := range All() {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("machine: unknown machine %q", name)
}
