// Package tune implements the automatic tuning the paper's conclusions
// call for (§VI): searching the space of OpenMP threads per MPI task, CPU
// box thickness, and GPU thread-block size for the best configuration of
// an implementation on a machine at a given scale. The paper notes these
// parameters interact ("the thickness of the CPU box partition ... can
// itself depend on the number of threads per task") and vary with the
// strong-scaling local domain size; the tuner searches the joint space.
//
// The one strategy is Exhaustive, which sweeps the whole space (the paper's
// own methodology — "a suite of runs ... that spans the space of various
// tuning parameters"). Each point costs one model evaluation, so a whole
// space of a few hundred points is cheap enough that no greedy search is
// needed.
package tune

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/machine"
	"repro/internal/perf"
)

// Point is one configuration in the tuning space.
type Point struct {
	Threads   int
	Thickness int
	BlockX    int
	BlockY    int
}

func (p Point) String() string {
	return fmt.Sprintf("threads=%d thickness=%d block=%dx%d",
		p.Threads, p.Thickness, p.BlockX, p.BlockY)
}

// Space is the set of candidate values per parameter, over one global grid
// (zero means the paper's 420³) and one halo width (zero means 1).
type Space struct {
	Threads   []int
	Thickness []int
	BlockX    []int
	BlockY    []int
	N         grid.Dims
	HaloWidth int
}

// DefaultSpace returns the space the paper sweeps for the given machine
// and implementation: the machine's thread choices, the box thicknesses of
// Figures 11-12 (hybrid implementations only), and the block sizes of
// Figures 7-8 (GPU implementations only).
func DefaultSpace(m *machine.Machine, kind core.Kind) Space {
	s := Space{
		Threads:   append([]int(nil), m.ThreadChoices...),
		Thickness: []int{1},
		BlockX:    []int{32},
		BlockY:    []int{8},
	}
	if kind == core.HybridBulkSync || kind == core.HybridOverlap {
		s.Thickness = []int{1, 2, 3, 5, 8, 12}
	}
	if kind.UsesGPU() {
		s.BlockX = []int{16, 32, 64}
		s.BlockY = []int{4, 8, 11, 13, 16}
	}
	return s
}

// Result reports a completed search.
type Result struct {
	Best        Point
	GF          float64
	Evaluations int
	// Feasible holds every point Exhaustive could evaluate, in sweep order
	// (threads outermost, then thickness, block x, block y).
	Feasible []Evaluation
}

// Evaluation is one feasible point and its modelled step.
type Evaluation struct {
	Point   Point
	StepSec float64
	GF      float64
}

// objective evaluates one point of s; invalid points return ok=false.
func objective(m *machine.Machine, kind core.Kind, cores int, s Space, p Point) (Evaluation, bool) {
	if p.Threads <= 0 || cores%p.Threads != 0 {
		return Evaluation{}, false
	}
	e, err := perf.Evaluate(perf.Config{
		M: m, Kind: kind, Cores: cores, Threads: p.Threads, N: s.N, HaloWidth: s.HaloWidth,
		BoxThickness: p.Thickness, BlockX: p.BlockX, BlockY: p.BlockY,
	})
	if err != nil {
		return Evaluation{}, false
	}
	return Evaluation{Point: p, StepSec: e.StepSec, GF: e.GF}, true
}

// Exhaustive sweeps the full space. It is the one best-over-the-tuning-
// parameters search of the repository: every "best of" point of the
// figures and every row cmd/report's sweep prints comes from it. Of equal
// optima the first in sweep order wins.
func Exhaustive(m *machine.Machine, kind core.Kind, cores int, s Space) (Result, error) {
	var res Result
	for _, t := range s.Threads {
		for _, w := range s.Thickness {
			for _, bx := range s.BlockX {
				for _, by := range s.BlockY {
					e, ok := objective(m, kind, cores, s, Point{Threads: t, Thickness: w, BlockX: bx, BlockY: by})
					res.Evaluations++
					if !ok {
						continue
					}
					res.Feasible = append(res.Feasible, e)
					if e.GF > res.GF {
						res.GF, res.Best = e.GF, e.Point
					}
				}
			}
		}
	}
	if res.GF == 0 {
		return res, fmt.Errorf("tune: no feasible configuration for %v on %s at %d cores",
			kind, m.Name, cores)
	}
	return res, nil
}

// Schedule is a tuned configuration per core count — what an auto-tuned
// production run would install.
type Schedule struct {
	Machine string
	Kind    core.Kind
	Entries []ScheduleEntry
}

// ScheduleEntry is the tuned point for one core count.
type ScheduleEntry struct {
	Cores int
	Point Point
	GF    float64
}

// BuildSchedule tunes every core count with Exhaustive.
func BuildSchedule(m *machine.Machine, kind core.Kind, coreCounts []int) (Schedule, error) {
	sched := Schedule{Machine: m.Name, Kind: kind}
	s := DefaultSpace(m, kind)
	for _, cores := range coreCounts {
		r, err := Exhaustive(m, kind, cores, s)
		if err != nil {
			return sched, err
		}
		sched.Entries = append(sched.Entries, ScheduleEntry{Cores: cores, Point: r.Best, GF: r.GF})
	}
	return sched, nil
}
