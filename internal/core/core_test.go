package core

import (
	"strings"
	"testing"

	"repro/internal/grid"
)

func TestKindStringsRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		parsed, err := ParseKind(k.String())
		if err != nil || parsed != k {
			t.Fatalf("round trip failed for %v: %v", k, err)
		}
	}
	if _, err := ParseKind("nonsense"); err == nil {
		t.Fatal("nonsense kind accepted")
	}
}

func TestKindSections(t *testing.T) {
	want := map[Kind]string{
		SingleTask:    "IV-A",
		BulkSync:      "IV-B",
		HybridOverlap: "IV-I",
	}
	for k, s := range want {
		if k.Section() != s {
			t.Fatalf("%v section = %s, want %s", k, k.Section(), s)
		}
	}
}

func TestKindPredicates(t *testing.T) {
	if SingleTask.UsesMPI() || GPUResident.UsesMPI() {
		t.Fatal("single-node kinds must not use MPI")
	}
	if !BulkSync.UsesMPI() || !HybridOverlap.UsesMPI() {
		t.Fatal("distributed kinds must use MPI")
	}
	if SingleTask.UsesGPU() || ThreadedOverlap.UsesGPU() {
		t.Fatal("CPU kinds must not use GPU")
	}
	for _, k := range []Kind{GPUResident, GPUBulkSync, GPUStreams, HybridBulkSync, HybridOverlap} {
		if !k.UsesGPU() {
			t.Fatalf("%v must use GPU", k)
		}
	}
}

func TestKindDescribe(t *testing.T) {
	for _, k := range Kinds() {
		if k.Describe() == "unknown" || k.Describe() == "" {
			t.Fatalf("%v has no description", k)
		}
	}
	if !strings.Contains(HybridOverlap.Describe(), "overlap") {
		t.Fatal("hybrid overlap description wrong")
	}
}

func TestProblemNormalize(t *testing.T) {
	p := DefaultProblem(16, 4)
	np, err := p.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if np.Nu != 1 { // max |c| = 1 -> nu = 1
		t.Fatalf("nu = %v, want 1", np.Nu)
	}
	if np.Wave == (grid.Gaussian{}) {
		t.Fatal("wave not defaulted")
	}
	// Original untouched (value semantics).
	if p.Nu != 0 {
		t.Fatal("Normalize mutated receiver")
	}
}

func TestProblemNormalizeErrors(t *testing.T) {
	bad := []Problem{
		{N: grid.Uniform(2), C: grid.Velocity{X: 1}, Steps: 1},           // too small
		{N: grid.Uniform(8), C: grid.Velocity{X: 1}, Steps: -1},          // negative steps
		{N: grid.Uniform(8), C: grid.Velocity{X: 1}, Steps: 1, Nu: 2},    // unstable
		{N: grid.Uniform(8), C: grid.Velocity{X: 1}, Steps: 1, Nu: -0.5}, // negative nu
	}
	for i, p := range bad {
		if _, err := p.Normalize(); err == nil {
			t.Fatalf("case %d: bad problem accepted", i)
		}
	}
}

func TestProblemFlops(t *testing.T) {
	p := DefaultProblem(10, 1)
	if got, want := p.Flops(), float64(1000*53); got != want {
		t.Fatalf("Flops = %v, want %v", got, want)
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}.Normalize()
	if o.Tasks != 1 || o.Threads != 1 || o.BlockX != 32 || o.BlockY != 8 || o.BoxThickness != 1 {
		t.Fatalf("bad defaults: %+v", o)
	}
	o2 := Options{Tasks: 3, Threads: 5, BlockX: 16, BlockY: 4, BoxThickness: 2}.Normalize()
	if o2.Tasks != 3 || o2.Threads != 5 || o2.BlockX != 16 || o2.BlockY != 4 || o2.BoxThickness != 2 {
		t.Fatal("Normalize clobbered explicit values")
	}
}

func TestRegistry(t *testing.T) {
	type fake struct{ Runner }
	Register(Kind(100), func() Runner { return fake{} })
	r, err := New(Kind(100))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := r.(fake); !ok {
		t.Fatal("wrong runner returned")
	}
	if _, err := New(Kind(101)); err == nil {
		t.Fatal("unregistered kind accepted")
	}
}

func TestGPUModelString(t *testing.T) {
	if GPUDefault.String() != "c2050" || GPUC1060.String() != "c1060" || GPUC2050.String() != "c2050" {
		t.Fatal("bad GPU model names")
	}
	// ParseGPU inverts String; the empty name is the default device and
	// anything else — a typo like c2O50 — is an error, not a C2050.
	for name, want := range map[string]GPUModel{"": GPUC2050, "c2050": GPUC2050, "c1060": GPUC1060} {
		if g, err := ParseGPU(name); err != nil || g != want {
			t.Errorf("ParseGPU(%q) = %v, %v", name, g, err)
		}
	}
	for _, bad := range []string{"c2O50", "foo", "C2050"} {
		if _, err := ParseGPU(bad); err == nil {
			t.Errorf("ParseGPU(%q) accepted", bad)
		}
	}
}

func TestPaperProblem(t *testing.T) {
	p := PaperProblem(10)
	if p.N != grid.Uniform(420) {
		t.Fatalf("paper grid %v", p.N)
	}
	if p.Steps != 10 {
		t.Fatal("steps not set")
	}
}
