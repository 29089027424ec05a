package impl

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/obs"
)

func obsProblem() core.Problem {
	return core.Problem{N: grid.Uniform(24), C: grid.Velocity{X: 1, Y: 1, Z: 1}, Steps: 4}
}

func runWithRecorder(t *testing.T, kind core.Kind, o core.Options) *obs.Recorder {
	t.Helper()
	rec := obs.NewRecorder()
	o.Rec = rec
	r, err := core.New(kind)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(obsProblem(), o); err != nil {
		t.Fatalf("%v: %v", kind, err)
	}
	return rec
}

// TestOverlapReportDistinguishesSchedules is the issue's acceptance
// criterion: the hybrid overlap implementation must show strictly positive
// MPI↔compute and PCIe↔kernel overlap, while the bulk-synchronous
// schedules report ≈0 for the same pairs.
func TestOverlapReportDistinguishesSchedules(t *testing.T) {
	const eps = 1e-9

	hybrid := runWithRecorder(t, core.HybridOverlap, core.Options{
		Tasks: 2, Threads: 2, BoxThickness: 2,
	}).Report()
	if f := hybrid.Pair(obs.PairMPICompute).Fraction; f <= 0 {
		t.Fatalf("HybridOverlap mpi/compute fraction = %v, want > 0", f)
	}
	if f := hybrid.Pair(obs.PairPCIeKernel).Fraction; f <= 0 {
		t.Fatalf("HybridOverlap pcie/kernel fraction = %v, want > 0", f)
	}
	if len(hybrid.Ranks) != 2 {
		t.Fatalf("expected spans from both ranks, got %d rank reports", len(hybrid.Ranks))
	}

	bulk := runWithRecorder(t, core.BulkSync, core.Options{Tasks: 2, Threads: 2}).Report()
	if p := bulk.Pair(obs.PairMPICompute); p.CommSec <= 0 || p.OverlapSec > eps {
		t.Fatalf("BulkSync mpi/compute should be ~0 of a positive comm window: %+v", p)
	}
	if p := bulk.Pair(obs.PairPCIeKernel); p.CommSec != 0 {
		t.Fatalf("BulkSync has no PCIe traffic, got %+v", p)
	}

	gpuBulk := runWithRecorder(t, core.GPUBulkSync, core.Options{Tasks: 2}).Report()
	if p := gpuBulk.Pair(obs.PairPCIeKernel); p.CommSec <= 0 || p.OverlapSec > eps {
		t.Fatalf("GPUBulkSync pcie/kernel should be ~0 of a positive copy time: %+v", p)
	}

	// The non-blocking and threaded CPU overlap schedules hide a positive
	// share of their exchange windows.
	for _, kind := range []core.Kind{core.NonblockingOverlap, core.ThreadedOverlap} {
		rep := runWithRecorder(t, kind, core.Options{Tasks: 2, Threads: 2}).Report()
		if f := rep.Pair(obs.PairMPICompute).Fraction; f <= 0 {
			t.Fatalf("%v mpi/compute fraction = %v, want > 0", kind, f)
		}
	}
}

// TestHybridTraceChromeExport checks the second half of the acceptance
// criterion: a traced HybridOverlap run exports Chrome trace-event JSON
// that unmarshals cleanly and covers both ranks and both time bases.
func TestHybridTraceChromeExport(t *testing.T) {
	rec := runWithRecorder(t, core.HybridOverlap, core.Options{
		Tasks: 2, Threads: 2, BoxThickness: 2,
	})

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string  `json:"ph"`
			Cat string  `json:"cat"`
			PID int     `json:"pid"`
			Ts  float64 `json:"ts"`
			Dur float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not unmarshal: %v", err)
	}
	ranks := map[int]bool{}
	cats := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		ranks[ev.PID] = true
		cats[ev.Cat] = true
	}
	if !ranks[0] || !ranks[1] {
		t.Fatalf("trace missing a rank's events: %v", ranks)
	}
	if !cats["wall"] || !cats["sim"] {
		t.Fatalf("trace missing a time base: %v", cats)
	}
}

// TestRunWithoutRecorderRecordsNothing guards the disabled path at the
// runner level: a run with no recorder must not fabricate spans anywhere.
func TestRunWithoutRecorderRecordsNothing(t *testing.T) {
	r, err := core.New(core.BulkSync)
	if err != nil {
		t.Fatal(err)
	}
	var rec *obs.Recorder
	o := core.Options{Tasks: 2, Rec: rec}
	if _, err := r.Run(obsProblem(), o); err != nil {
		t.Fatal(err)
	}
	if rec.Len() != 0 {
		t.Fatalf("nil recorder accumulated %d spans", rec.Len())
	}
}

// TestMergedOverlapStats: a two-task GPU run records both devices' timelines
// into the one recorder, each attributed to its owning rank, and the report's
// total is their sum.
func TestMergedOverlapStats(t *testing.T) {
	r, err := core.New(core.GPUStreams)
	if err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder()
	if _, err := r.Run(obsProblem(), core.Options{Tasks: 2, Rec: rec}); err != nil {
		t.Fatal(err)
	}
	rep := rec.Report()
	if len(rep.Ranks) != 2 {
		t.Fatalf("report covers %d ranks, want 2", len(rep.Ranks))
	}
	var sum, most float64
	for _, rr := range rep.Ranks {
		ov := 0.0
		for _, p := range rr.Pairs {
			if p.Name == obs.PairPCIeKernel {
				ov = p.OverlapSec
			}
		}
		if ov <= 0 {
			t.Fatalf("rank %d's device hides no PCIe time: GPUStreams across 2 tasks should still overlap", rr.Rank)
		}
		sum, most = sum+ov, max(most, ov)
	}
	if total := rep.Pair(obs.PairPCIeKernel).OverlapSec; total != sum || total < most {
		t.Fatalf("total overlap %v, want the per-device sum %v (largest device %v)", total, sum, most)
	}
}

// TestOverlapLandsCopiesBeforeCompute reads both CPU overlap schedules'
// order from the trace at 1, 2 and 8 tasks × 2 threads (task grids 1×1×1,
// 1×1×2 and 2×2×2): in each step of each rank, the mpi.exchange span of x
// and of each copy-only phase right after it ends before the step's first
// compute span, and each later phase contains its third.* span (§IV-C) or
// lies inside the master+workers span (§IV-D).
func TestOverlapLandsCopiesBeforeCompute(t *testing.T) {
	type key struct{ rank, step int }
	for _, kind := range []core.Kind{core.NonblockingOverlap, core.ThreadedOverlap} {
		for _, tasks := range []int{1, 2, 8} {
			d := grid.NewDecomp(obsProblem().N, tasks)
			p := [3]int{d.P.X, d.P.Y, d.P.Z}
			landed := 1
			for landed < 3 && p[landed] == 1 {
				landed++
			}
			spans := runWithRecorder(t, kind, core.Options{Tasks: tasks, Threads: 2}).Spans()
			first := map[key]float64{}
			compute := map[key]map[string]obs.Span{}
			for _, s := range spans {
				if s.Phase != obs.PhaseInterior && s.Phase != obs.PhaseBoundary {
					continue
				}
				k := key{s.Rank, s.Step}
				if f, ok := first[k]; !ok || s.Start < f {
					first[k] = s.Start
				}
				if compute[k] == nil {
					compute[k] = map[string]obs.Span{}
				}
				compute[k][s.Label] = s
			}
			exchanges := 0
			for _, s := range spans {
				if s.Phase != obs.PhaseMPIExchange {
					continue
				}
				exchanges++
				k, dim := key{s.Rank, s.Step}, slices.Index(dimNames[:], s.Label)
				if dim < landed {
					if s.End > first[k] {
						t.Errorf("%v, %d tasks, rank %d step %d: the %s exchange ends at %g, after compute starts at %g",
							kind, tasks, s.Rank, s.Step, s.Label, s.End, first[k])
					}
					continue
				}
				part, ok := compute[k][thirdNames[dim]]
				outer, inner := s, part // §IV-C: the phase brackets its part
				if kind == core.ThreadedOverlap {
					part, ok = compute[k]["master+workers"]
					outer, inner = part, s // §IV-D: the region brackets the master's phases
				}
				if !ok || inner.Start < outer.Start || inner.End > outer.End {
					t.Errorf("%v, %d tasks, rank %d step %d: %s [%g, %g] is not inside %s [%g, %g]",
						kind, tasks, k.rank, k.step, inner.Label, inner.Start, inner.End, outer.Label, outer.Start, outer.End)
				}
			}
			if want := 3 * tasks * obsProblem().Steps; exchanges != want {
				t.Fatalf("%v, %d tasks: %d exchange spans, want %d", kind, tasks, exchanges, want)
			}
		}
	}
}

// TestSingleTaskStepOpensOneRegion: §IV-A's step copies its periodic halos
// on the task's own goroutine, so the compute is its one parallel region;
// the set-up's fill is the run's only other.
func TestSingleTaskStepOpensOneRegion(t *testing.T) {
	regions := 0
	for _, s := range runWithRecorder(t, core.SingleTask, core.Options{Threads: 2}).Spans() {
		if s.Phase == obs.PhaseRegion {
			regions++
		}
	}
	if want := obsProblem().Steps + 1; regions != want {
		t.Fatalf("%d parallel regions in %d steps, want %d", regions, obsProblem().Steps, want)
	}
}
