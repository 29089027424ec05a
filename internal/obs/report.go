package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
)

// The report measures two canonical phase pairs, the repo's wall-clock
// analog of the paper's Figures 9/10:
//
//   - mpi/compute: how much of the in-flight MPI exchange window was
//     covered by CPU stencil compute on the same rank (wall base);
//   - pcie/kernel: how much of the PCIe copy time ran concurrently with
//     kernels on the same device (sim base).
//
// A bulk-synchronous schedule scores ~0 on both; the overlap schedules
// (§IV-C through §IV-I) score strictly positive.
const (
	PairMPICompute = "mpi/compute"
	PairPCIeKernel = "pcie/kernel"
)

var pairDefs = []struct {
	name string
	comm []Phase // the side being hidden
	work []Phase // the side doing the hiding
}{
	{PairMPICompute, []Phase{PhaseMPIExchange}, []Phase{PhaseInterior, PhaseBoundary}},
	{PairPCIeKernel, []Phase{PhaseH2D, PhaseD2H}, []Phase{PhaseKernel}},
}

// PairOverlap is the measured overlap between one phase pair on one rank
// (or totaled over ranks). Fraction is OverlapSec/CommSec — the share of
// communication time that was hidden — or 0 when there was no
// communication at all.
type PairOverlap struct {
	Name       string  `json:"name"`
	CommSec    float64 `json:"comm_sec"`
	WorkSec    float64 `json:"work_sec"`
	OverlapSec float64 `json:"overlap_sec"`
	Fraction   float64 `json:"fraction"`
}

// RankReport is one rank's phase occupancy and pair overlaps.
type RankReport struct {
	Rank  int                `json:"rank"`
	Spans int                `json:"spans"`
	Busy  map[string]float64 `json:"busy_sec"` // phase name -> merged busy seconds
	Pairs []PairOverlap      `json:"pairs"`
}

// Report is the overlap-efficiency report over all ranks.
type Report struct {
	Spans     int              `json:"spans"`
	Ranks     []RankReport     `json:"ranks"`
	Total     []PairOverlap    `json:"total"`
	Imbalance *ImbalanceReport `json:"imbalance,omitempty"`
}

// RankLoad is one rank's contribution to the imbalance report: its merged
// wall-clock busy time and the share of the run's makespan it covers. A
// straggler has a critical-path share near 1 while its peers idle.
type RankLoad struct {
	Rank      int     `json:"rank"`
	BusySec   float64 `json:"busy_sec"`
	CritShare float64 `json:"critical_path_share"`
}

// PhaseImbalance is the max/mean spread of one phase's busy time across
// ranks. A ratio near 1 is balanced; well above 1 names the phase that
// makes the straggler a straggler.
type PhaseImbalance struct {
	Phase   string  `json:"phase"`
	MeanSec float64 `json:"mean_sec"`
	MaxSec  float64 `json:"max_sec"`
	Ratio   float64 `json:"ratio"`
	MaxRank int     `json:"max_rank"`
}

// ImbalanceReport quantifies per-rank load imbalance: total wall-clock busy
// time per rank (max/mean and the straggler's identity), the run's wall
// makespan, and the per-phase spread. Only simulation ranks (>= 0)
// participate; totals use wall-base spans only, because sim-base device
// time is not commensurable with the wall makespan. Per-phase entries are
// base-consistent by construction (a phase has exactly one base) and so
// include the sim phases.
type ImbalanceReport struct {
	Ranks       []RankLoad       `json:"ranks"`
	MeanSec     float64          `json:"mean_sec"`
	MaxSec      float64          `json:"max_sec"`
	Ratio       float64          `json:"ratio"`
	Straggler   int              `json:"straggler"`
	MakespanSec float64          `json:"makespan_sec"`
	Phases      []PhaseImbalance `json:"phases,omitempty"`
}

// Report builds the overlap-efficiency report from the recorded spans.
// A disabled recorder yields an empty report.
func (r *Recorder) Report() Report {
	if r == nil {
		return BuildReport(nil)
	}
	return BuildReport(r.Spans())
}

// BuildReport computes per-rank and total overlap, and the imbalance
// across simulation ranks, from a span set. Each rank's spans are grouped
// by phase and merged once; every figure is read off those merged sets.
func BuildReport(spans []Span) Report {
	rep := Report{Spans: len(spans)}
	byRank := map[int][]Span{}
	for _, s := range spans {
		byRank[s.Rank] = append(byRank[s.Rank], s)
	}
	ranks := make([]int, 0, len(byRank))
	for r := range byRank {
		ranks = append(ranks, r)
	}
	sort.Ints(ranks)

	totals := make([]PairOverlap, len(pairDefs))
	for i, d := range pairDefs {
		totals[i].Name = d.name
	}
	merged := map[int]map[Phase][]interval{} // rank -> phase -> merged spans
	for _, rank := range ranks {
		rs := byRank[rank]
		byPhase := map[Phase][]interval{}
		for _, s := range rs {
			byPhase[s.Phase] = append(byPhase[s.Phase], interval{s.Start, s.End})
		}
		rr := RankReport{Rank: rank, Spans: len(rs), Busy: map[string]float64{}}
		for ph, iv := range byPhase {
			byPhase[ph] = merge(iv)
			rr.Busy[ph.String()] = busySeconds(byPhase[ph])
		}
		merged[rank] = byPhase
		for i, d := range pairDefs {
			comm := merge(gather(byPhase, d.comm))
			work := merge(gather(byPhase, d.work))
			p := PairOverlap{
				Name:       d.name,
				CommSec:    busySeconds(comm),
				WorkSec:    busySeconds(work),
				OverlapSec: intersectSeconds(comm, work),
			}
			if p.CommSec > 0 {
				p.Fraction = p.OverlapSec / p.CommSec
			}
			rr.Pairs = append(rr.Pairs, p)
			totals[i].CommSec += p.CommSec
			totals[i].WorkSec += p.WorkSec
			totals[i].OverlapSec += p.OverlapSec
		}
		rep.Ranks = append(rep.Ranks, rr)
	}
	for i := range totals {
		if totals[i].CommSec > 0 {
			totals[i].Fraction = totals[i].OverlapSec / totals[i].CommSec
		}
	}
	rep.Total = totals
	rep.Imbalance = imbalance(ranks, merged)
	return rep
}

// imbalance builds the load-imbalance/straggler section from each rank's
// merged phase sets, over the simulation ranks (>= 0) that recorded
// wall-base spans. It returns nil when there are none (service-only
// traces, disabled recorders).
func imbalance(ranks []int, merged map[int]map[Phase][]interval) *ImbalanceReport {
	rep := &ImbalanceReport{}
	lo, hi := math.Inf(1), math.Inf(-1) // wall makespan window
	phases := map[Phase]bool{}
	for _, r := range ranks {
		if r < 0 {
			continue // service track: not a simulation rank
		}
		var wall []interval
		for ph, iv := range merged[r] {
			if ph.Base() == BaseWall {
				wall = append(wall, iv...)
			}
		}
		if wall = merge(wall); len(wall) == 0 {
			continue
		}
		lo, hi = min(lo, wall[0].s), max(hi, wall[len(wall)-1].e)
		rep.Ranks = append(rep.Ranks, RankLoad{Rank: r, BusySec: busySeconds(wall)})
		for ph := range merged[r] {
			phases[ph] = true
		}
	}
	if len(rep.Ranks) == 0 {
		return nil
	}
	rep.MakespanSec, rep.Straggler = hi-lo, rep.Ranks[0].Rank
	var sum float64
	for i, load := range rep.Ranks {
		if rep.MakespanSec > 0 {
			rep.Ranks[i].CritShare = load.BusySec / rep.MakespanSec
		}
		sum += load.BusySec
		if load.BusySec > rep.MaxSec {
			rep.MaxSec, rep.Straggler = load.BusySec, load.Rank
		}
	}
	rep.MeanSec = sum / float64(len(rep.Ranks))
	if rep.MeanSec > 0 {
		rep.Ratio = rep.MaxSec / rep.MeanSec
	}

	order := make([]Phase, 0, len(phases))
	for p := range phases {
		order = append(order, p)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	for _, p := range order {
		pi := PhaseImbalance{Phase: p.String()}
		var psum float64
		// Ranks missing the phase count as zero: an absent phase on one
		// rank IS imbalance, not a smaller denominator.
		for i, load := range rep.Ranks {
			b := busySeconds(merged[load.Rank][p])
			psum += b
			if i == 0 || b > pi.MaxSec {
				pi.MaxSec, pi.MaxRank = b, load.Rank
			}
		}
		if psum == 0 {
			continue
		}
		pi.MeanSec = psum / float64(len(rep.Ranks))
		pi.Ratio = pi.MaxSec / pi.MeanSec
		rep.Phases = append(rep.Phases, pi)
	}
	return rep
}

// Pair returns the totaled overlap for the named pair (zero value if the
// name is unknown).
func (rep Report) Pair(name string) PairOverlap {
	for _, p := range rep.Total {
		if p.Name == name {
			return p
		}
	}
	return PairOverlap{Name: name}
}

// WriteText renders the human-readable summary: total pair fractions, then
// a per-rank phase occupancy table.
func (rep Report) WriteText(w io.Writer) {
	fmt.Fprintf(w, "overlap report: %d spans, %d ranks\n", rep.Spans, len(rep.Ranks))
	for _, p := range rep.Total {
		fmt.Fprintf(w, "  %-12s hidden %6.1f%%  (comm %.6fs, compute %.6fs, overlap %.6fs)\n",
			p.Name, p.Fraction*100, p.CommSec, p.WorkSec, p.OverlapSec)
	}
	if im := rep.Imbalance; im != nil {
		fmt.Fprintf(w, "  imbalance: max/mean %.2f, straggler rank %d (busy %.6fs of %.6fs makespan, critical-path share %5.1f%%)\n",
			im.Ratio, im.Straggler, im.MaxSec, im.MakespanSec, im.critShare()*100)
		for _, pi := range im.Phases {
			fmt.Fprintf(w, "    %-18s max/mean %.2f (rank %d, max %.6fs, mean %.6fs)\n",
				pi.Phase, pi.Ratio, pi.MaxRank, pi.MaxSec, pi.MeanSec)
		}
	}
	for _, rr := range rep.Ranks {
		fmt.Fprintf(w, "  rank %d: %d spans\n", rr.Rank, rr.Spans)
		names := make([]string, 0, len(rr.Busy))
		for n := range rr.Busy {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "    %-18s busy %.6fs\n", n, rr.Busy[n])
		}
		for _, p := range rr.Pairs {
			fmt.Fprintf(w, "    %-18s hidden %6.1f%% (%.6fs of %.6fs)\n",
				p.Name, p.Fraction*100, p.OverlapSec, p.CommSec)
		}
	}
}

// critShare returns the straggler's critical-path share.
func (im *ImbalanceReport) critShare() float64 {
	for _, r := range im.Ranks {
		if r.Rank == im.Straggler {
			return r.CritShare
		}
	}
	return 0
}

// interval arithmetic: merge unions a phase's spans into disjoint sorted
// intervals; intersectSeconds sweeps two merged sets with two pointers.

type interval struct{ s, e float64 }

func gather(byPhase map[Phase][]interval, phases []Phase) []interval {
	var out []interval
	for _, p := range phases {
		out = append(out, byPhase[p]...)
	}
	return out
}

func merge(iv []interval) []interval {
	if len(iv) == 0 {
		return nil
	}
	sorted := make([]interval, len(iv))
	copy(sorted, iv)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].s < sorted[j].s })
	out := sorted[:1]
	for _, v := range sorted[1:] {
		last := &out[len(out)-1]
		if v.s <= last.e {
			if v.e > last.e {
				last.e = v.e
			}
		} else {
			out = append(out, v)
		}
	}
	return out
}

func busySeconds(merged []interval) float64 {
	var t float64
	for _, v := range merged {
		t += v.e - v.s
	}
	return t
}

func intersectSeconds(a, b []interval) float64 {
	var t float64
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		lo := a[i].s
		if b[j].s > lo {
			lo = b[j].s
		}
		hi := a[i].e
		if b[j].e < hi {
			hi = b[j].e
		}
		if hi > lo {
			t += hi - lo
		}
		if a[i].e < b[j].e {
			i++
		} else {
			j++
		}
	}
	return t
}
