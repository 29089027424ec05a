package core

import (
	"context"
	"strings"
	"testing"

	"repro/internal/grid"
)

func testProblems() []Problem {
	odd := DefaultProblem(17, 31)
	odd.Nu = 0.123456789012345
	odd.T0 = 2.5
	odd.Wave = grid.Gaussian{Center: [3]float64{1.5, 2.25, 3.125}, Sigma: 0.875}
	return []Problem{
		DefaultProblem(64, 50),
		DefaultProblem(8, 0),
		odd,
	}
}

func testOptions() []Options {
	return []Options{
		{Tasks: 1, Threads: 1, BlockX: 32, BlockY: 8, BoxThickness: 1, HaloWidth: 2, GPU: GPUC2050},
		{Tasks: 8, Threads: 4, BlockX: 16, BlockY: 16, BoxThickness: 3, HaloWidth: 4,
			TasksPerGPU: 2, GPU: GPUC1060, Verify: true},
	}
}

// TestCanonicalRoundTrip checks that Canonical inverts through the parsers
// bit-exactly: the parsed structs equal the originals (for problems without
// a checkpointed initial state), and re-encoding is a fixpoint.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, p := range testProblems() {
		s := p.Canonical()
		got, err := ParseProblemCanonical(s)
		if err != nil {
			t.Fatalf("ParseProblemCanonical(%q): %v", s, err)
		}
		if got != p {
			t.Errorf("problem round trip: got %+v, want %+v (canonical %q)", got, p, s)
		}
		if got.Canonical() != s {
			t.Errorf("problem canonical not a fixpoint: %q vs %q", got.Canonical(), s)
		}
	}
	for _, o := range testOptions() {
		s := o.Canonical()
		got, err := ParseOptionsCanonical(s)
		if err != nil {
			t.Fatalf("ParseOptionsCanonical(%q): %v", s, err)
		}
		if got != o {
			t.Errorf("options round trip: got %+v, want %+v (canonical %q)", got, o, s)
		}
		if got.Canonical() != s {
			t.Errorf("options canonical not a fixpoint: %q vs %q", got.Canonical(), s)
		}
	}
}

// TestCanonicalExcludesContext checks that the cancellation context does
// not leak into the canonical form or the fingerprint.
func TestCanonicalExcludesContext(t *testing.T) {
	p := DefaultProblem(16, 5)
	o := Options{Tasks: 2}
	withCtx := o
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	withCtx.Ctx = ctx
	if o.Canonical() != withCtx.Canonical() {
		t.Errorf("Ctx leaked into canonical form")
	}
	if Fingerprint(BulkSync, p, o) != Fingerprint(BulkSync, p, withCtx) {
		t.Errorf("Ctx leaked into fingerprint")
	}
}

// TestCanonicalGPUDefaultCollapses checks that GPUDefault and GPUC2050 —
// the same physical device — share one canonical form.
func TestCanonicalGPUDefaultCollapses(t *testing.T) {
	a := Options{GPU: GPUDefault}
	b := Options{GPU: GPUC2050}
	if a.Canonical() != b.Canonical() {
		t.Errorf("GPUDefault %q != GPUC2050 %q", a.Canonical(), b.Canonical())
	}
}

// TestFingerprintSensitivity checks that every field that changes the
// computation changes the fingerprint.
func TestFingerprintSensitivity(t *testing.T) {
	base := DefaultProblem(16, 10)
	baseO := Options{Tasks: 2, Threads: 2}
	ref := Fingerprint(BulkSync, base, baseO)

	mutate := []struct {
		name string
		kind Kind
		p    func(Problem) Problem
		o    func(Options) Options
	}{
		{name: "kind", kind: NonblockingOverlap},
		{name: "n", p: func(p Problem) Problem { p.N.X++; return p }},
		{name: "velocity", p: func(p Problem) Problem { p.C.Y = 0.75; return p }},
		{name: "nu", p: func(p Problem) Problem { p.Nu = 0.1; return p }},
		{name: "steps", p: func(p Problem) Problem { p.Steps++; return p }},
		{name: "wave", p: func(p Problem) Problem { p.Wave.Sigma = 3; return p }},
		{name: "t0", p: func(p Problem) Problem { p.T0 = 1; return p }},
		{name: "tasks", o: func(o Options) Options { o.Tasks = 4; return o }},
		{name: "threads", o: func(o Options) Options { o.Threads = 1; return o }},
		{name: "block", o: func(o Options) Options { o.BlockX = 16; return o }},
		{name: "box", o: func(o Options) Options { o.BoxThickness = 2; return o }},
		{name: "halo", o: func(o Options) Options { o.HaloWidth = 3; return o }},
		{name: "tpg", o: func(o Options) Options { o.TasksPerGPU = 2; return o }},
		{name: "gpu", o: func(o Options) Options { o.GPU = GPUC1060; return o }},
		{name: "verify", o: func(o Options) Options { o.Verify = true; return o }},
	}
	for _, m := range mutate {
		k, p, o := BulkSync, base, baseO
		if m.kind != 0 {
			k = m.kind
		}
		if m.p != nil {
			p = m.p(p)
		}
		if m.o != nil {
			o = m.o(o)
		}
		if got := Fingerprint(k, p, o); got == ref {
			t.Errorf("mutating %s did not change the fingerprint", m.name)
		}
	}
}

// TestCanonicalInitialState checks that a checkpointed initial state is
// folded into the encoding as a content hash, changes the fingerprint, and
// refuses to parse back.
func TestCanonicalInitialState(t *testing.T) {
	p := DefaultProblem(8, 3)
	f := grid.NewField(p.N, 1)
	f.Fill(func(i, j, k int) float64 { return float64(i + 2*j + 3*k) })
	withInit := p
	withInit.Initial = f

	if p.Canonical() == withInit.Canonical() {
		t.Errorf("initial state not reflected in canonical form")
	}
	if !strings.Contains(withInit.Canonical(), "init=sha256:") {
		t.Errorf("canonical form %q lacks the content hash", withInit.Canonical())
	}
	if _, err := ParseProblemCanonical(withInit.Canonical()); err == nil {
		t.Errorf("parsing a hashed initial state should fail")
	}

	// A different initial state must hash differently.
	g := f.Clone()
	g.Set(1, 1, 1, -99)
	other := p
	other.Initial = g
	if withInit.Canonical() == other.Canonical() {
		t.Errorf("distinct initial states share a canonical form")
	}
}

func TestParseCanonicalErrors(t *testing.T) {
	bad := []string{
		"",
		"p2;n=1,1,1",
		"o1;tasks=1",
		"p1;n=1,1;c=1,1,1;nu=0;steps=1;wave=1,1,1,1;t0=0;init=-",
		"p1;c=1,1,1;n=1,1,1;nu=0;steps=1;wave=1,1,1,1;t0=0;init=-",
		"p1;n=1,1,1;c=1,1,1;nu=0;steps=1;wave=1,1,1,1;t0=0;init=-;extra=1",
		"o1;tasks=x;threads=1;block=32,8;box=1;halo=2;tpg=0;gpu=c2050;verify=0;trace=0",
		"o1;tasks=1;threads=1;block=32,8;box=1;halo=2;tpg=0;gpu=k20;verify=0;trace=0",
		"o1;tasks=1;threads=1;block=32,8;box=1;halo=2;tpg=0;gpu=c2050;verify=2;trace=0",
	}
	for _, s := range bad {
		if _, err := ParseProblemCanonical(s); err == nil {
			if _, err := ParseOptionsCanonical(s); err == nil {
				t.Errorf("parse of %q unexpectedly succeeded", s)
			}
		}
	}
}
