package impl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/grid"
)

// goldenRun is what one run of the golden set must reproduce: the SHA-256
// of the final field's interior, the simulated time and the cost model's
// inputs (kernel launches, PCIe bytes) to the bit, the verification numbers
// to 1e-12 (their summation order is not part of the contract: ranks and
// threads may split the sums).
type goldenRun struct {
	Name       string  `json:"name"`
	Hash       string  `json:"hash"`
	L2         float64 `json:"l2"`
	LInf       float64 `json:"linf"`
	MassDrift  float64 `json:"mass_drift"`
	SimSeconds float64 `json:"sim_seconds,omitempty"`
	Kernels    float64 `json:"gpu_kernels,omitempty"`
	PCIeBytes  float64 `json:"pcie_bytes,omitempty"`

	mass float64 // |Σu| of the final field: the scale of MassDrift's roundoff
}

// goldenFile is testdata/golden_runs.json. ExpCanary is the hash of the
// initial wave as grid.Gaussian.Eval computes it on the recording host:
// math.Exp on amd64 takes an FMA path where the CPU has one, so a host
// without it produces other last bits and the runs that start from the
// wave cannot be compared there.
type goldenFile struct {
	ExpCanary string      `json:"exp_canary"`
	Runs      []goldenRun `json:"runs"`
}

type goldenCase struct {
	name string
	kind core.Kind
	p    core.Problem
	o    core.Options
}

// interiorHash is the SHA-256 of a field's extents and interior values in
// storage order. Halos are left out: their contents after a run are not a
// result.
func interiorHash(f *grid.Field) string {
	h := sha256.New()
	var buf [8]byte
	for _, n := range []int{f.N.X, f.N.Y, f.N.Z} {
		binary.LittleEndian.PutUint64(buf[:], uint64(n))
		h.Write(buf[:])
	}
	for k := 0; k < f.N.Z; k++ {
		for j := 0; j < f.N.Y; j++ {
			for i := 0; i < f.N.X; i++ {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.At(i, j, k)))
				h.Write(buf[:])
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenProblem is small, non-cubic, with an off-centre wave that sits
// between grid points and a velocity of mixed signs.
func goldenProblem(steps int) core.Problem {
	return core.Problem{
		N:     grid.Dims{X: 20, Y: 14, Z: 12},
		C:     grid.Velocity{X: 1, Y: -0.5, Z: 0.25},
		Steps: steps,
		Wave:  grid.Gaussian{Center: [3]float64{6.3, 9.1, 2.7}, Sigma: 2.2},
	}
}

// restartField is a checkpoint-like initial state built without math.Exp.
func restartField(n grid.Dims) *grid.Field {
	f := grid.NewField(n, 1)
	f.Fill(func(i, j, k int) float64 {
		x := float64((i*7+j*3+k*5)%17) / 17
		return x*x - 0.25*x + float64(i+j+k)/64
	})
	return f
}

func goldenCases() []goldenCase {
	var out []goldenCase
	for _, k := range append(core.Kinds(), core.WideHaloExt) {
		o := core.Options{Tasks: 2, Threads: 2, BlockX: 8, BlockY: 4, HaloWidth: 3, Verify: true}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		// 0 and 1 step, an even and an odd count; with W = 3 the wide-halo
		// runs end in a short burst of 1 and of 2 steps.
		for _, steps := range []int{0, 1, 4, 5} {
			out = append(out, goldenCase{fmt.Sprintf("%v/steps%d", k, steps), k, goldenProblem(steps), o})
		}
		p := goldenProblem(3)
		p.Initial, p.T0 = restartField(p.N), 1.25
		out = append(out, goldenCase{fmt.Sprintf("%v/restart", k), k, p, o})
	}
	// Decompositions cut in two and in three dimensions, for the gather.
	for _, tasks := range []int{4, 8} {
		o := core.Options{Tasks: tasks, Threads: 1, Verify: true}
		out = append(out, goldenCase{fmt.Sprintf("bulk/tasks%d", tasks), core.BulkSync, goldenProblem(3), o})
	}
	return out
}

func expCanary() string {
	p, _ := goldenProblem(0).Normalize()
	f := grid.NewField(p.N, 1)
	f.Fill(func(i, j, k int) float64 { return p.Wave.Eval(p.N, i, j, k) })
	return interiorHash(f)
}

func runGolden(t *testing.T, c goldenCase) goldenRun {
	t.Helper()
	res := run(t, c.kind, c.p, c.o)
	return goldenRun{
		Name: c.name, Hash: interiorHash(res.Final),
		L2: res.Norms.L2, LInf: res.Norms.LInf, MassDrift: res.MassDrift,
		SimSeconds: res.Stats["sim.seconds"],
		Kernels:    res.Stats["gpu.kernels"], PCIeBytes: res.Stats["pcie.bytes"],
		mass: math.Abs(res.Final.InteriorSum()),
	}
}

// TestGoldenRuns pins every kind's results to recorded values: final
// fields, simulated times, kernel counts and PCIe bytes to the bit, norms
// and mass drift to 1e-12. Every schedule runs the one row kernel, so the
// file must also say that each kind's field is single-task's field for the
// same problem. Regenerate with UPDATE_GOLDEN=1 go test ./internal/impl
// only for an intended change of results.
func TestGoldenRuns(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden values were recorded on amd64; other targets fuse multiply-adds")
	}
	path := filepath.Join("testdata", "golden_runs.json")
	cases := goldenCases()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		gf := goldenFile{ExpCanary: expCanary()}
		for _, c := range cases {
			gf.Runs = append(gf.Runs, runGolden(t, c))
		}
		b, err := json.MarshalIndent(gf, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(b, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with UPDATE_GOLDEN=1 to create): %v", err)
	}
	var gf goldenFile
	if err := json.Unmarshal(b, &gf); err != nil {
		t.Fatal(err)
	}
	if len(gf.Runs) != len(cases) {
		t.Fatalf("golden file has %d runs, the case list %d", len(gf.Runs), len(cases))
	}
	sameExp := gf.ExpCanary == expCanary()
	if !sameExp {
		t.Log("math.Exp differs from the recording host's: only the restart runs are compared")
	}
	near := func(got, want, scale float64) bool { return math.Abs(got-want) <= 1e-12*scale }
	single := map[string]string{} // problem name → single-task's recorded hash
	for i, c := range cases {
		want := gf.Runs[i]
		if want.Name != c.name {
			t.Fatalf("golden run %d is %q, case list has %q", i, want.Name, c.name)
		}
		_, problem, _ := strings.Cut(c.name, "/")
		if c.kind == core.SingleTask {
			single[problem] = want.Hash
		} else if h, ok := single[problem]; ok && want.Hash != h {
			t.Errorf("%s: golden hash %.16s is not single-task's %.16s", c.name, want.Hash, h)
		}
		if c.p.Initial == nil && !sameExp {
			continue
		}
		got := runGolden(t, c)
		if got.Hash != want.Hash {
			t.Errorf("%s: final field hash %.16s, golden %.16s", c.name, got.Hash, want.Hash)
		}
		if got.SimSeconds != want.SimSeconds {
			t.Errorf("%s: sim.seconds %v, golden %v", c.name, got.SimSeconds, want.SimSeconds)
		}
		if got.Kernels != want.Kernels || got.PCIeBytes != want.PCIeBytes {
			t.Errorf("%s: %v kernels, %v PCIe bytes; golden %v, %v", c.name, got.Kernels, got.PCIeBytes, want.Kernels, want.PCIeBytes)
		}
		if !near(got.L2, want.L2, want.L2) || !near(got.LInf, want.LInf, want.LInf) ||
			!near(got.MassDrift, want.MassDrift, got.mass) {
			t.Errorf("%s: verification numbers moved:\n got  %+v\n want %+v", c.name, got, want)
		}
	}
}

// TestVerifyDoesNotChangeTheField: an unverified run skips the mass and
// norm passes and must still return the verified run's field.
func TestVerifyDoesNotChangeTheField(t *testing.T) {
	for _, c := range goldenCases() {
		if c.p.Steps != 4 {
			continue
		}
		want := interiorHash(run(t, c.kind, c.p, c.o).Final)
		c.o.Verify = false
		res := run(t, c.kind, c.p, c.o)
		if got := interiorHash(res.Final); got != want {
			t.Errorf("%s: unverified field %.16s, verified %.16s", c.name, got, want)
		}
		if res.Norms != (grid.Norms{}) || res.MassDrift != 0 {
			t.Errorf("%s: unverified run reports norms %+v drift %g", c.name, res.Norms, res.MassDrift)
		}
	}
}

// TestRunAllocatesItsFieldsAndTheGather bounds the bytes one unverified Run
// allocates at 48³ by what the answer needs: the two state fields per rank,
// and for the MPI scaffold the global field with the gather's one copy of
// every non-root rank's interior (the message slot it packs into), plus
// 15 % for exchange buffers, messages and bookkeeping. A global-sized
// temporary (the cloned final field, a throw-away field for the initial
// mass) or a staging copy of an interior does not fit under it.
func TestRunAllocatesItsFieldsAndTheGather(t *testing.T) {
	p := core.DefaultProblem(48, 1)
	fieldBytes := func(n grid.Dims) float64 { return float64(8 * (n.X + 2) * (n.Y + 2) * (n.Z + 2)) }
	d := grid.NewDecomp(p.N, 2)
	bulk := fieldBytes(p.N)
	for r := 0; r < d.Tasks(); r++ {
		bulk += 2 * fieldBytes(d.Sub(r).Size)
		if r != 0 {
			bulk += 8 * float64(d.Sub(r).Size.Volume())
		}
	}
	for _, c := range []struct {
		kind  core.Kind
		o     core.Options
		bound float64
	}{
		{core.SingleTask, core.Options{Threads: 2}, 2 * fieldBytes(p.N)},
		{core.BulkSync, core.Options{Tasks: 2}, bulk},
	} {
		run(t, c.kind, p, c.o)
		const runs = 4
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			run(t, c.kind, p, c.o)
		}
		runtime.ReadMemStats(&after)
		got := float64(after.TotalAlloc-before.TotalAlloc) / runs
		if got > 1.15*c.bound {
			t.Errorf("%v: %.2f MB per run, fields and gather are %.2f MB", c.kind, got/1e6, c.bound/1e6)
		}
	}
}

// TestRunWithoutGatherAllocatesNoGlobalField: an unverified bulk Run on two
// tasks of one thread at 48³ that skips the gather allocates the two state
// fields of each rank, plus 15 % for exchange buffers, messages and
// bookkeeping, and returns no field. The global field and the slot a rank
// packs its interior into (together 0.7 of the ranks' fields) do not fit
// under it.
func TestRunWithoutGatherAllocatesNoGlobalField(t *testing.T) {
	p := core.DefaultProblem(48, 1)
	o := core.Options{Tasks: 2, SkipGather: true}
	d := grid.NewDecomp(p.N, o.Tasks)
	var fields float64
	for r := 0; r < d.Tasks(); r++ {
		n := d.Sub(r).Size
		fields += 2 * float64(8*(n.X+2)*(n.Y+2)*(n.Z+2))
	}
	if res := run(t, core.BulkSync, p, o); res.Final != nil {
		t.Fatal("a run that skips the gather returned a field")
	}
	const runs = 4
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run(t, core.BulkSync, p, o)
	}
	runtime.ReadMemStats(&after)
	if got := float64(after.TotalAlloc-before.TotalAlloc) / runs; got > 1.15*fields {
		t.Errorf("%.2f MB per run, the ranks' fields are %.2f MB", got/1e6, fields/1e6)
	}
}

// TestCPUStepsAllocateNothing is the allocation ratchet on the five CPU
// schedules at 16³ with the benchmark's tasks × threads, and on threaded at
// 2 tasks × 1 thread, whose master exchanges z: a run of 2S steps
// allocates exactly what a run of S steps does, so a steady-state step —
// its regions, exchanges and messages — allocates nothing. The collector
// is off while it counts: a collection empties the runtime's caches of
// goroutine records and wait records, which the next goroutines and
// wake-ups allocate again. Even so the runtime sometimes tops those caches
// up by a record or two within a run, so each schedule gets several tries at
// an equal count; an allocation per step puts S more into every try.
func TestCPUStepsAllocateNothing(t *testing.T) {
	const steps = 32
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	mallocs := func(k core.Kind, p core.Problem, o core.Options) int64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		run(t, k, p, o)
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs - before.Mallocs)
	}
	for _, c := range []struct {
		kind core.Kind
		o    core.Options
	}{
		{core.SingleTask, core.Options{Tasks: 1, Threads: 2}},
		{core.BulkSync, core.Options{Tasks: 2, Threads: 1}},
		{core.NonblockingOverlap, core.Options{Tasks: 2, Threads: 1}},
		{core.ThreadedOverlap, core.Options{Tasks: 1, Threads: 2}},
		{core.ThreadedOverlap, core.Options{Tasks: 2, Threads: 1}},
		{core.WideHaloExt, core.Options{Tasks: 2, Threads: 1, HaloWidth: 2}},
	} {
		p1, p2 := core.DefaultProblem(16, steps), core.DefaultProblem(16, 2*steps)
		run(t, c.kind, p2, c.o) // warm-up: the first run of a kind fills the runtime's caches
		var extra []int64
		for try := 0; try < 10; try++ {
			m1 := mallocs(c.kind, p1, c.o)
			if d := mallocs(c.kind, p2, c.o) - m1; d != 0 {
				extra = append(extra, d)
				continue
			}
			extra = nil
			break
		}
		if extra != nil {
			t.Errorf("%v: %d steps more allocate %v times more, want 0 in some try", c.kind, steps, extra)
		}
	}
}

// BenchmarkRunOverhead times a Run of no steps — set-up, gather and, when
// verified, verification — for bench/'s reference run (single task, one
// task of two threads, 128³) and serve_mix's job (bulk, two tasks of one
// thread, 48³).
func BenchmarkRunOverhead(b *testing.B) {
	for _, c := range []struct {
		name string
		kind core.Kind
		n    int
		o    core.Options
	}{
		{"single/n128", core.SingleTask, 128, core.Options{Tasks: 1, Threads: 2}},
		{"bulk/n48", core.BulkSync, 48, core.Options{Tasks: 2, Threads: 1}},
	} {
		for _, verify := range []bool{false, true} {
			o := c.o
			o.Verify = verify
			b.Run(fmt.Sprintf("%s/verify=%v", c.name, verify), func(b *testing.B) {
				r, err := core.New(c.kind)
				if err != nil {
					b.Fatal(err)
				}
				p := core.DefaultProblem(c.n, 0)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := r.Run(p, o); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkRunFixedCost times what a Run pays outside its barrier-bracketed
// step loop — field allocation, initialisation, gather and the world's
// start and end — at bench/'s steady_large size (128³, one step, for bulk
// on two tasks of one thread and single on one task of two), and reports
// it as fixed-ms/op: wall time less Result.Elapsed.
func BenchmarkRunFixedCost(b *testing.B) {
	for _, c := range []struct {
		name string
		kind core.Kind
		o    core.Options
	}{
		{"bulk/2x1", core.BulkSync, core.Options{Tasks: 2, Threads: 1}},
		{"single/1x2", core.SingleTask, core.Options{Tasks: 1, Threads: 2}},
	} {
		b.Run(c.name, func(b *testing.B) {
			r, err := core.New(c.kind)
			if err != nil {
				b.Fatal(err)
			}
			p := core.DefaultProblem(128, 1)
			var fixed time.Duration
			for i := 0; i < b.N; i++ {
				t0 := time.Now()
				res, err := r.Run(p, c.o)
				if err != nil {
					b.Fatal(err)
				}
				fixed += time.Since(t0) - res.Elapsed
			}
			b.ReportMetric(float64(fixed)/1e6/float64(b.N), "fixed-ms/op")
		})
	}
}
