package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestDisabledRecorderIsInert(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	if r.Clock() != 0 {
		t.Fatal("nil recorder clock != 0")
	}
	a := r.Begin(0, 0, PhaseInterior, "x")
	a.End()
	r.Add(0, 0, PhaseH2D, "", 0, 1)
	if r.Len() != 0 || r.Spans() != nil {
		t.Fatal("nil recorder kept spans")
	}
	rep := r.Report()
	if rep.Spans != 0 || len(rep.Ranks) != 0 {
		t.Fatalf("nil recorder report not empty: %+v", rep)
	}
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("nil recorder chrome export: %v", err)
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace does not parse: %v", err)
	}

	// An untraced job carries a nil recorder, so every exported method,
	// present or future, must be safe on it. A pointer argument is a fresh
	// zero value, not nil, so a method may not lean on its argument's nil
	// check to cover a missing receiver guard.
	writer := reflect.TypeOf((*io.Writer)(nil)).Elem()
	rt := reflect.TypeOf(r)
	for i := 0; i < rt.NumMethod(); i++ {
		m := rt.Method(i)
		args := []reflect.Value{reflect.ValueOf(r)}
		for j := 1; j < m.Type.NumIn(); j++ {
			switch in := m.Type.In(j); {
			case in == writer:
				args = append(args, reflect.ValueOf(io.Discard))
			case in.Kind() == reflect.Pointer:
				args = append(args, reflect.New(in.Elem()))
			default:
				args = append(args, reflect.Zero(in))
			}
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Errorf("(*Recorder)(nil).%s panics: %v", m.Name, p)
				}
			}()
			m.Func.Call(args)
		}()
	}
}

// TestDisabledRecorderAllocatesNothing is the allocation contract the ci.sh
// overhead gate enforces: the disabled path must be allocation-free.
func TestDisabledRecorderAllocatesNothing(t *testing.T) {
	var r *Recorder
	allocs := testing.AllocsPerRun(1000, func() {
		a := r.Begin(3, 7, PhaseMPIExchange, "x")
		a.End()
		r.Add(0, 0, PhaseKernel, "k", 0, 1)
		_ = r.Clock()
	})
	if allocs != 0 {
		t.Fatalf("disabled recorder allocated %v times per op", allocs)
	}
}

// TestEnabledRecorderAllocatesNothing: a traced run records several spans
// per rank per step, so recording one must cost no allocation of its own —
// only the span log's amortized growth, which rounds to zero per call.
func TestEnabledRecorderAllocatesNothing(t *testing.T) {
	r := NewRecorder()
	allocs := testing.AllocsPerRun(1000, func() {
		a := r.Begin(3, 7, PhaseMPIExchange, "x")
		a.End()
		r.Add(0, 0, PhaseKernel, "k", 0, 1)
		_ = r.Clock()
	})
	if allocs != 0 {
		t.Fatalf("enabled recorder allocated %v times per op", allocs)
	}
	if r.Len() < 2000 {
		t.Fatalf("recorded %d spans, want two per run", r.Len())
	}
}

func TestBeginEndRecordsOrderedSpans(t *testing.T) {
	r := NewRecorder()
	a := r.Begin(1, 4, PhaseInterior, "whole")
	a.End()
	r.Add(0, -1, PhaseKernel, "interior", 2.0, 3.0)
	r.Add(0, 0, PhaseHaloPack, "", 0.5, 0.6)
	spans := r.Spans()
	if len(spans) != 3 || r.Len() != 3 {
		t.Fatalf("got %d spans", len(spans))
	}
	// Ordered by rank, then phase.
	if spans[0].Rank != 0 || spans[0].Phase != PhaseHaloPack {
		t.Fatalf("bad order: %+v", spans[0])
	}
	if spans[1].Phase != PhaseKernel || spans[1].Step != -1 {
		t.Fatalf("bad order: %+v", spans[1])
	}
	if spans[2].Rank != 1 || spans[2].Phase != PhaseInterior || spans[2].Label != "whole" || spans[2].Step != 4 {
		t.Fatalf("bad span: %+v", spans[2])
	}
	if spans[2].End < spans[2].Start {
		t.Fatalf("negative duration: %+v", spans[2])
	}
	// Inverted windows are dropped rather than corrupting the report.
	r.Add(0, 0, PhaseCopy, "", 5, 4)
	if r.Len() != 3 {
		t.Fatal("inverted span was kept")
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	for rank := 0; rank < 8; rank++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				a := r.Begin(rank, i, PhaseInterior, "")
				a.End()
				_ = r.Len()
			}
			_ = r.Spans()
		}(rank)
	}
	wg.Wait()
	if r.Len() != 800 {
		t.Fatalf("got %d spans, want 800", r.Len())
	}
}

func TestPhaseBases(t *testing.T) {
	for p := Phase(0); p < numPhases; p++ {
		if p.String() == "phase(?)" {
			t.Fatalf("phase %d has no name", p)
		}
	}
	for _, p := range []Phase{PhaseH2D, PhaseD2H, PhaseKernel} {
		if p.Base() != BaseSim {
			t.Fatalf("%v should be sim-based", p)
		}
	}
	for _, p := range []Phase{PhaseInterior, PhaseMPIExchange, PhaseLaunch, PhaseRegion} {
		if p.Base() != BaseWall {
			t.Fatalf("%v should be wall-based", p)
		}
	}
	if BaseWall.String() != "wall" || BaseSim.String() != "sim" {
		t.Fatal("base names changed")
	}
}

// TestReportOverlapMath checks the interval arithmetic against a hand-built
// span set: exchange [0,10] with interior [2,5] and boundary [4,7] inside
// it on rank 0, and a fully serialized rank 1.
func TestReportOverlapMath(t *testing.T) {
	var spans []Span
	add := func(rank int, ph Phase, s, e float64) {
		spans = append(spans, Span{Rank: rank, Step: 0, Phase: ph, Start: s, End: e})
	}
	add(0, PhaseMPIExchange, 0, 10)
	add(0, PhaseInterior, 2, 5)
	add(0, PhaseBoundary, 4, 7) // union with interior: [2,7] -> 5s overlap
	add(0, PhaseH2D, 0, 2)
	add(0, PhaseKernel, 1, 4) // 1s of the h2d copy hidden
	add(1, PhaseMPIExchange, 0, 4)
	add(1, PhaseInterior, 4, 9) // back-to-back, zero overlap

	rep := BuildReport(spans)
	if rep.Spans != 7 || len(rep.Ranks) != 2 {
		t.Fatalf("bad report shape: %+v", rep)
	}

	r0 := rep.Ranks[0]
	if r0.Rank != 0 {
		t.Fatalf("ranks unsorted: %+v", rep.Ranks)
	}
	if got := r0.Busy[PhaseInterior.String()]; got != 3 {
		t.Fatalf("interior busy = %v, want 3", got)
	}
	var mpi0, pcie0 PairOverlap
	for _, p := range r0.Pairs {
		switch p.Name {
		case PairMPICompute:
			mpi0 = p
		case PairPCIeKernel:
			pcie0 = p
		}
	}
	if mpi0.OverlapSec != 5 || mpi0.CommSec != 10 || mpi0.WorkSec != 5 {
		t.Fatalf("rank0 mpi/compute: %+v", mpi0)
	}
	if math.Abs(mpi0.Fraction-0.5) > 1e-12 {
		t.Fatalf("rank0 mpi fraction = %v, want 0.5", mpi0.Fraction)
	}
	if pcie0.OverlapSec != 1 || pcie0.CommSec != 2 || math.Abs(pcie0.Fraction-0.5) > 1e-12 {
		t.Fatalf("rank0 pcie/kernel: %+v", pcie0)
	}

	r1 := rep.Ranks[1]
	for _, p := range r1.Pairs {
		if p.Name == PairMPICompute && p.OverlapSec != 0 {
			t.Fatalf("rank1 should have zero overlap: %+v", p)
		}
	}

	// Totals: mpi comm 14s, overlap 5s.
	tot := rep.Pair(PairMPICompute)
	if tot.CommSec != 14 || tot.OverlapSec != 5 {
		t.Fatalf("total mpi/compute: %+v", tot)
	}
	if math.Abs(tot.Fraction-5.0/14.0) > 1e-12 {
		t.Fatalf("total fraction = %v", tot.Fraction)
	}
	if unknown := rep.Pair("nope"); unknown.CommSec != 0 || unknown.Name != "nope" {
		t.Fatalf("unknown pair: %+v", unknown)
	}

	var buf bytes.Buffer
	rep.WriteText(&buf)
	out := buf.String()
	for _, want := range []string{"mpi/compute", "pcie/kernel", "rank 0", "rank 1", "compute.interior"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text summary missing %q:\n%s", want, out)
		}
	}
}

func TestIntervalHelpers(t *testing.T) {
	m := merge([]interval{{5, 6}, {0, 2}, {1, 3}, {6, 6}})
	if len(m) != 2 || m[0] != (interval{0, 3}) || m[1] != (interval{5, 6}) {
		t.Fatalf("merge: %+v", m)
	}
	if got := busySeconds(m); got != 4 {
		t.Fatalf("busy = %v", got)
	}
	if got := intersectSeconds(m, []interval{{2, 5.5}}); got != 1.5 {
		t.Fatalf("intersect = %v", got)
	}
	if got := intersectSeconds(nil, m); got != 0 {
		t.Fatalf("intersect with empty = %v", got)
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := NewRecorder()
	r.Add(0, 2, PhaseInterior, "whole", 0.1, 0.2)
	r.Add(0, -1, PhaseKernel, "interior", 0.001, 0.002)
	r.Add(1, 2, PhaseMPIExchange, "x", 0.1, 0.3)

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			TID  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace does not unmarshal: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	var x, meta int
	procs := map[int]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			x++
			procs[ev.PID] = true
			if ev.Dur <= 0 {
				t.Fatalf("non-positive duration: %+v", ev)
			}
		case "M":
			meta++
		default:
			t.Fatalf("unexpected event type %q", ev.Ph)
		}
	}
	if x != 3 {
		t.Fatalf("got %d X events, want 3", x)
	}
	// 2 process_name + (3 tracks × 2 metadata each).
	if meta != 8 {
		t.Fatalf("got %d metadata events, want 8", meta)
	}
	if !procs[0] || !procs[1] {
		t.Fatalf("missing rank processes: %v", procs)
	}
	// The interior span timestamps are microseconds.
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Name == "whole" {
			if math.Abs(ev.TS-1e5) > 1e-6 || math.Abs(ev.Dur-1e5) > 1e-6 {
				t.Fatalf("bad us conversion: %+v", ev)
			}
			if ev.Args["step"] != float64(2) {
				t.Fatalf("missing step arg: %+v", ev)
			}
		}
	}
}
