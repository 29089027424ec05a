package obs

import (
	"math"
	"strings"
	"testing"
)

func TestBuildImbalanceStraggler(t *testing.T) {
	im := BuildReport(twoRankHybridSpans()).Imbalance
	if im == nil {
		t.Fatal("report has no imbalance section")
	}
	if len(im.Ranks) != 2 {
		t.Fatalf("got %d ranks, want 2 (service track must be excluded)", len(im.Ranks))
	}
	if im.Straggler != 1 {
		t.Fatalf("straggler = %d, want 1", im.Straggler)
	}
	if im.Ratio <= 1 {
		t.Fatalf("max/mean ratio = %g, want > 1 for imbalanced load", im.Ratio)
	}
	// Rank 0 wall busy: mpi.exchange [4,10]ms ∪ interior [5,9]ms ∪
	// boundary [10,12]ms = [4,12]ms = 8ms. Rank 1: [4,18] ∪ [18,20] = 16ms.
	if math.Abs(im.Ranks[0].BusySec-0.008) > 1e-9 {
		t.Fatalf("rank 0 busy = %g, want 0.008", im.Ranks[0].BusySec)
	}
	if math.Abs(im.Ranks[1].BusySec-0.016) > 1e-9 {
		t.Fatalf("rank 1 busy = %g, want 0.016", im.Ranks[1].BusySec)
	}
	// Wall makespan over ranks >= 0: [4,20]ms = 16ms; the straggler's
	// critical-path share is therefore 1.
	if math.Abs(im.MakespanSec-0.016) > 1e-9 {
		t.Fatalf("makespan = %g, want 0.016", im.MakespanSec)
	}
	if math.Abs(im.Ranks[1].CritShare-1.0) > 1e-9 {
		t.Fatalf("straggler critical-path share = %g, want 1.0", im.Ranks[1].CritShare)
	}

	// The per-phase table must name compute.interior as the widest spread
	// and attribute the max to rank 1.
	var interior *PhaseImbalance
	for i := range im.Phases {
		if im.Phases[i].Phase == "compute.interior" {
			interior = &im.Phases[i]
		}
	}
	if interior == nil {
		t.Fatal("no compute.interior phase entry")
	}
	if interior.MaxRank != 1 || interior.Ratio <= 1 {
		t.Fatalf("compute.interior: max_rank=%d ratio=%g, want rank 1 and ratio > 1",
			interior.MaxRank, interior.Ratio)
	}
}

func TestBuildImbalanceServiceOnly(t *testing.T) {
	spans := []Span{
		{Rank: RankService, Step: -1, Phase: PhaseQueueWait, Start: 0, End: 1},
	}
	if im := BuildReport(spans).Imbalance; im != nil {
		t.Fatalf("service-only spans produced an imbalance report: %+v", im)
	}
	if im := BuildReport(nil).Imbalance; im != nil {
		t.Fatal("empty span set produced an imbalance report")
	}
}

func TestReportTextIncludesImbalance(t *testing.T) {
	rep := BuildReport(twoRankHybridSpans())
	if rep.Imbalance == nil {
		t.Fatal("report missing imbalance section")
	}
	var sb strings.Builder
	rep.WriteText(&sb)
	out := sb.String()
	for _, want := range []string{"imbalance:", "straggler rank 1", "critical-path share", "compute.interior"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report text missing %q:\n%s", want, out)
		}
	}
}
