package tune

import (
	"testing"

	"repro/internal/core"
	"repro/internal/machine"
)

func TestExhaustiveFindsFeasible(t *testing.T) {
	yona := machine.Yona()
	for _, k := range []core.Kind{core.BulkSync, core.GPUStreams, core.HybridOverlap} {
		r, err := Exhaustive(yona, k, 48, DefaultSpace(yona, k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if r.GF <= 0 || r.Evaluations == 0 {
			t.Fatalf("%v: empty result %+v", k, r)
		}
	}
}

func TestDefaultSpaceShape(t *testing.T) {
	yona := machine.Yona()
	cpu := DefaultSpace(yona, core.BulkSync)
	if len(cpu.Thickness) != 1 || len(cpu.BlockX) != 1 {
		t.Fatal("CPU space should not sweep GPU or thickness axes")
	}
	hyb := DefaultSpace(yona, core.HybridOverlap)
	if len(hyb.Thickness) < 3 || len(hyb.BlockX) < 2 {
		t.Fatal("hybrid space should sweep thickness and blocks")
	}
}

func TestBuildSchedule(t *testing.T) {
	yona := machine.Yona()
	sched, err := BuildSchedule(yona, core.HybridOverlap, []int{12, 48, 192})
	if err != nil {
		t.Fatal(err)
	}
	if len(sched.Entries) != 3 {
		t.Fatalf("%d entries", len(sched.Entries))
	}
	// The paper's Fig 12 finding: thin boxes and few tasks per node.
	for _, e := range sched.Entries {
		if e.Point.Thickness > 3 {
			t.Fatalf("cores=%d: tuned thickness %d, expected a thin veneer", e.Cores, e.Point.Thickness)
		}
		if e.GF <= 0 {
			t.Fatalf("cores=%d: no GF", e.Cores)
		}
	}
	// Tuned throughput rises with scale over this range.
	if !(sched.Entries[0].GF < sched.Entries[1].GF && sched.Entries[1].GF < sched.Entries[2].GF) {
		t.Fatal("tuned GF not increasing with cores")
	}
}

func TestInfeasibleSpace(t *testing.T) {
	yona := machine.Yona()
	bad := Space{Threads: []int{5}, Thickness: []int{1}, BlockX: []int{32}, BlockY: []int{8}}
	if _, err := Exhaustive(yona, core.BulkSync, 12, bad); err == nil {
		t.Fatal("infeasible space accepted") // 12 % 5 != 0
	}
}

func TestPointString(t *testing.T) {
	p := Point{Threads: 6, Thickness: 1, BlockX: 32, BlockY: 8}
	if p.String() != "threads=6 thickness=1 block=32x8" {
		t.Fatalf("String = %q", p.String())
	}
}
