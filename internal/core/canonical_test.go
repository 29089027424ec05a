package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
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

// TestCanonicalRoundTrip checks that a stored Problem or Options — its JSON
// form, as session.Record keeps it — comes back bit-exactly: the decoded
// structs equal the originals, re-encoding the canonical form is a
// fixpoint (so fingerprints survive storage), and Initial, Rec and Ctx are
// never serialised.
func TestCanonicalRoundTrip(t *testing.T) {
	for _, p := range testProblems() {
		withInit := p
		withInit.Initial = grid.NewField(p.N, 1)
		data, err := json.Marshal(withInit)
		if err != nil {
			t.Fatalf("marshal %+v: %v", p, err)
		}
		if strings.Contains(string(data), "Initial") {
			t.Errorf("Initial serialised: %s", data)
		}
		var got Problem
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if got != p {
			t.Errorf("problem round trip: got %+v, want %+v (json %s)", got, p, data)
		}
		if got.Canonical() != p.Canonical() {
			t.Errorf("problem canonical not a fixpoint: %q vs %q", got.Canonical(), p.Canonical())
		}
	}
	for _, o := range testOptions() {
		live := o
		live.Ctx, live.Rec = context.Background(), obs.NewRecorder()
		data, err := json.Marshal(live)
		if err != nil {
			t.Fatalf("marshal %+v: %v", o, err)
		}
		if s := string(data); strings.Contains(s, "Ctx") || strings.Contains(s, "Rec") {
			t.Errorf("Ctx or Rec serialised: %s", s)
		}
		var got Options
		if err := json.Unmarshal(data, &got); err != nil {
			t.Fatalf("unmarshal %s: %v", data, err)
		}
		if got != o {
			t.Errorf("options round trip: got %+v, want %+v (json %s)", got, o, data)
		}
		if got.Canonical() != o.Canonical() {
			t.Errorf("options canonical not a fixpoint: %q vs %q", got.Canonical(), o.Canonical())
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

// TestCanonicalExcludesSkipGather: asking a run not to gather its final
// field changes what it returns, not what it computes.
func TestCanonicalExcludesSkipGather(t *testing.T) {
	p := DefaultProblem(16, 5)
	o := Options{Tasks: 2}
	skip := o
	skip.SkipGather = true
	if o.Canonical() != skip.Canonical() || Fingerprint(BulkSync, p, o) != Fingerprint(BulkSync, p, skip) {
		t.Errorf("SkipGather leaked into the canonical form or the fingerprint")
	}
	if b, err := json.Marshal(skip); err != nil || strings.Contains(string(b), "SkipGather") {
		t.Errorf("SkipGather leaked into JSON: %s (%v)", b, err)
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
// folded into the encoding as a content hash and changes the fingerprint.
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

	// A different initial state must hash differently.
	g := f.Clone()
	g.Set(1, 1, 1, -99)
	other := p
	other.Initial = g
	if withInit.Canonical() == other.Canonical() {
		t.Errorf("distinct initial states share a canonical form")
	}
}
