package impl

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
)

// reference runs the single-task implementation and returns its final field.
func reference(t *testing.T, p core.Problem) *grid.Field {
	t.Helper()
	r, err := core.New(core.SingleTask)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(p, core.Options{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	return res.Final
}

// agree asserts two fields match to the bit: every schedule computes a point
// with the one row kernel from the same 27 inputs.
func agree(t *testing.T, name string, got, want *grid.Field) {
	t.Helper()
	if got == nil {
		t.Fatalf("%s: nil final field", name)
	}
	nm := grid.DiffNorms(got, want)
	if nm.LInf != 0 {
		t.Fatalf("%s: differs from single-task reference: LInf=%g L2=%g", name, nm.LInf, nm.L2)
	}
}

func run(t *testing.T, k core.Kind, p core.Problem, o core.Options) *core.Result {
	t.Helper()
	r, err := core.New(k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := r.Run(p, o)
	if err != nil {
		t.Fatalf("%v: %v", k, err)
	}
	return res
}

func TestAllKindsRegistered(t *testing.T) {
	// All nine paper implementations plus the wide-halo extension.
	for _, k := range append(core.Kinds(), core.WideHaloExt) {
		if r, err := core.New(k); err != nil || r.Kind() != k {
			t.Fatalf("%v not registered: %v", k, err)
		}
	}
}

func TestSingleTaskMatchesAnalyticShift(t *testing.T) {
	// c=(1,1,1), ν=1: every step is an exact lattice shift, so the
	// numerical solution equals the analytic one to roundoff.
	p := core.Problem{N: grid.Uniform(12), C: grid.Velocity{X: 1, Y: 1, Z: 1}, Steps: 5}
	res := run(t, core.SingleTask, p, core.Options{Threads: 3, Verify: true})
	if res.Norms.LInf > 1e-12 {
		t.Fatalf("exact-shift error: %+v", res.Norms)
	}
	if res.MassDrift > 1e-10 {
		t.Fatalf("mass drift %g", res.MassDrift)
	}
}

func TestSingleTaskThreadInvariance(t *testing.T) {
	p := core.DefaultProblem(14, 4)
	want := reference(t, p)
	for _, threads := range []int{1, 4, 7} {
		res := run(t, core.SingleTask, p, core.Options{Threads: threads})
		agree(t, "threads", res.Final, want)
	}
}

// taskCounts exercises cubic, prime, self-neighbor, and anisotropic
// decompositions.
var taskCounts = []int{1, 2, 3, 4, 5, 7, 8, 12}

func TestBulkSyncMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		res := run(t, core.BulkSync, p, core.Options{Tasks: tasks, Threads: 2})
		agree(t, "bulk", res.Final, want)
		if tasks > 1 && res.Stats["mpi.messages"] == 0 {
			t.Fatalf("tasks=%d: no MPI traffic recorded", tasks)
		}
	}
}

func TestNonblockingOverlapMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		res := run(t, core.NonblockingOverlap, p, core.Options{Tasks: tasks, Threads: 2})
		agree(t, "nonblocking", res.Final, want)
	}
}

func TestThreadedOverlapMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		for _, threads := range []int{1, 3} {
			res := run(t, core.ThreadedOverlap, p, core.Options{Tasks: tasks, Threads: threads})
			agree(t, "threaded", res.Final, want)
		}
	}
}

func TestGPUResidentMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, blk := range [][2]int{{8, 4}, {16, 8}, {32, 8}, {5, 3}} {
		res := run(t, core.GPUResident, p, core.Options{BlockX: blk[0], BlockY: blk[1]})
		agree(t, "gpu-resident", res.Final, want)
		if res.Stats["gpu.kernels"] != float64(p.Steps) {
			t.Fatalf("block %v: %v kernels, want %d", blk, res.Stats["gpu.kernels"], p.Steps)
		}
	}
}

func TestGPUResidentBothDevices(t *testing.T) {
	p := core.DefaultProblem(12, 2)
	want := reference(t, p)
	for _, g := range []core.GPUModel{core.GPUC1060, core.GPUC2050} {
		res := run(t, core.GPUResident, p, core.Options{GPU: g, BlockX: 8, BlockY: 4})
		agree(t, g.String(), res.Final, want)
	}
}

func TestGPUBulkSyncMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		res := run(t, core.GPUBulkSync, p, core.Options{Tasks: tasks, BlockX: 8, BlockY: 4})
		agree(t, "gpu-bulk", res.Final, want)
		if res.Stats["pcie.bytes"] == 0 {
			t.Fatal("no PCIe traffic recorded")
		}
	}
}

func TestGPUStreamsMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 3)
	want := reference(t, p)
	for _, tasks := range taskCounts {
		res := run(t, core.GPUStreams, p, core.Options{Tasks: tasks, BlockX: 8, BlockY: 4})
		agree(t, "gpu-streams", res.Final, want)
	}
}

func TestHybridBulkSyncMatchesReference(t *testing.T) {
	p := core.DefaultProblem(16, 3)
	want := reference(t, p)
	for _, tasks := range []int{1, 2, 4} {
		for _, thick := range []int{1, 2, 3} {
			res := run(t, core.HybridBulkSync, p,
				core.Options{Tasks: tasks, Threads: 2, BoxThickness: thick, BlockX: 8, BlockY: 4})
			agree(t, "hybrid-bulk", res.Final, want)
		}
	}
}

func TestHybridOverlapMatchesReference(t *testing.T) {
	p := core.DefaultProblem(16, 3)
	want := reference(t, p)
	for _, tasks := range []int{1, 2, 4} {
		for _, thick := range []int{1, 2, 3} {
			res := run(t, core.HybridOverlap, p,
				core.Options{Tasks: tasks, Threads: 2, BoxThickness: thick, BlockX: 8, BlockY: 4})
			agree(t, "hybrid-overlap", res.Final, want)
		}
	}
}

func TestAllImplementationsConserveMass(t *testing.T) {
	p := core.DefaultProblem(12, 4)
	for _, k := range core.Kinds() {
		o := core.Options{Tasks: 2, Threads: 2, BlockX: 8, BlockY: 4, Verify: true}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		res := run(t, k, p, o)
		if res.MassDrift > 1e-9 {
			t.Fatalf("%v: mass drift %g", k, res.MassDrift)
		}
	}
}

func TestVerifyNormsSmall(t *testing.T) {
	// With a well-resolved Gaussian the numerical error after a few steps
	// is small; verify every implementation reports sane norms.
	p := core.DefaultProblem(24, 6)
	for _, k := range core.Kinds() {
		o := core.Options{Tasks: 3, Threads: 2, BlockX: 8, BlockY: 4, Verify: true}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		res := run(t, k, p, o)
		if res.Norms.L2 == 0 || math.IsNaN(res.Norms.L2) {
			t.Fatalf("%v: suspicious L2 %v", k, res.Norms.L2)
		}
		// The default Gaussian is ~2.4 points wide at this size, so the
		// second-order scheme leaves a few percent of peak after 6 steps.
		if res.Norms.LInf > 0.08 {
			t.Fatalf("%v: LInf %v too large", k, res.Norms.LInf)
		}
	}
}

func TestAnisotropicGrid(t *testing.T) {
	// Non-cubic grids exercise the decomposition and exchange index math.
	p := core.Problem{N: grid.Dims{X: 13, Y: 10, Z: 17}, C: grid.Velocity{X: 0.5, Y: 1, Z: 0.25}, Steps: 3}
	want := reference(t, p)
	for _, k := range []core.Kind{core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap, core.GPUBulkSync, core.GPUStreams} {
		res := run(t, k, p, core.Options{Tasks: 6, Threads: 2, BlockX: 8, BlockY: 4})
		agree(t, k.String(), res.Final, want)
	}
}

func TestNegativeVelocity(t *testing.T) {
	p := core.Problem{N: grid.Uniform(12), C: grid.Velocity{X: -1, Y: 0.5, Z: -0.25}, Steps: 4}
	want := reference(t, p)
	for _, k := range []core.Kind{core.BulkSync, core.GPUResident, core.HybridOverlap} {
		o := core.Options{Tasks: 4, Threads: 2, BlockX: 8, BlockY: 4}
		if !k.UsesMPI() {
			o.Tasks = 1
		}
		res := run(t, k, p, o)
		agree(t, k.String(), res.Final, want)
	}
}

func TestZeroStepsIsIdentity(t *testing.T) {
	p := core.DefaultProblem(10, 0)
	res := run(t, core.BulkSync, p, core.Options{Tasks: 2})
	initial := grid.NewField(p.N, 1)
	pn, _ := p.Normalize()
	grid.FillGaussian(initial, pn.Wave)
	agree(t, "zero-steps", res.Final, initial)
}

// TestErrorPaths: every bad option is a plain error from the scaffold's
// validation, before a world or a goroutine exists.
func TestErrorPaths(t *testing.T) {
	p10 := core.DefaultProblem(10, 1)
	uneven := core.DefaultProblem(9, 1)
	for _, c := range []struct {
		name string
		kind core.Kind
		p    core.Problem
		o    core.Options
		want string
	}{
		{"tiny grid", core.SingleTask, core.DefaultProblem(2, 1), core.Options{}, "too small"},
		{"negative steps", core.BulkSync, core.DefaultProblem(10, -1), core.Options{}, "negative step count"},
		{"oversubscribed tasks", core.BulkSync, p10, core.Options{Tasks: 100}, "tasks too many"},
		{"multi-task GPU-resident", core.GPUResident, p10, core.Options{Tasks: 2}, "single task"},
		{"shell consuming the domain", core.HybridBulkSync, p10, core.Options{BoxThickness: 5}, "leaves no GPU interior"},
		// 9 points in z split 5 + 4 over two tasks: thickness 2 fits rank
		// 0 and consumes rank 1.
		{"shell consuming the last rank", core.HybridOverlap, uneven, core.Options{Tasks: 2, BoxThickness: 2}, "rank 1: "},
		{"oversized block, gpu", core.GPUResident, p10, core.Options{BlockX: 64, BlockY: 64, GPU: core.GPUC1060}, "block 64x64 invalid"},
		{"oversized block, gpu-bulk", core.GPUBulkSync, p10, core.Options{Tasks: 2, BlockX: 64, BlockY: 64, GPU: core.GPUC1060}, "block 64x64 invalid"},
		{"oversized block, gpu-streams", core.GPUStreams, p10, core.Options{Tasks: 2, BlockX: 64, BlockY: 64, GPU: core.GPUC1060}, "block 64x64 invalid"},
		{"oversized block, hybrid-overlap", core.HybridOverlap, p10, core.Options{Tasks: 2, BlockX: 64, BlockY: 64, GPU: core.GPUC1060}, "block 64x64 invalid"},
		{"halo wider than a subdomain", core.WideHaloExt, core.DefaultProblem(8, 1), core.Options{Tasks: 8, HaloWidth: 5}, "halo width 5 exceeds rank 0"},
	} {
		r, err := core.New(c.kind)
		if err != nil {
			t.Fatal(err)
		}
		_, err = r.Run(c.p, c.o)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.want)
		}
		// A rank's panic comes back through the poisoned world with the
		// rank's name on it; a validation error never met a world.
		if err != nil && strings.Contains(err.Error(), "mpi: rank") {
			t.Errorf("%s: error %v was raised inside a rank", c.name, err)
		}
	}
}

func TestSimulatedTimeRecorded(t *testing.T) {
	p := core.DefaultProblem(16, 2)
	for _, k := range []core.Kind{core.GPUResident, core.GPUBulkSync, core.GPUStreams, core.HybridOverlap} {
		o := core.Options{Tasks: 1, BlockX: 8, BlockY: 4}
		res := run(t, k, p, o)
		if res.Stats["sim.seconds"] <= 0 {
			t.Fatalf("%v: no simulated time recorded", k)
		}
	}
}

func TestStreamsOverlapBeatsBulkInSimTime(t *testing.T) {
	// The overlap implementations must show shorter *simulated* step time
	// than their bulk counterparts on the same configuration — the
	// functional analog of the paper's Figures 9 and 10.
	p := core.DefaultProblem(32, 3)
	o := core.Options{Tasks: 1, BlockX: 16, BlockY: 8}
	bulk := run(t, core.GPUBulkSync, p, o)
	streams := run(t, core.GPUStreams, p, o)
	if streams.Stats["sim.seconds"] >= bulk.Stats["sim.seconds"] {
		t.Fatalf("streams sim time %v not below bulk %v",
			streams.Stats["sim.seconds"], bulk.Stats["sim.seconds"])
	}
}

func TestHybridOverlapBeatsHybridBulkInSimTime(t *testing.T) {
	p := core.DefaultProblem(32, 3)
	o := core.Options{Tasks: 1, Threads: 2, BoxThickness: 1, BlockX: 16, BlockY: 8}
	bulk := run(t, core.HybridBulkSync, p, o)
	over := run(t, core.HybridOverlap, p, o)
	if over.Stats["sim.seconds"] >= bulk.Stats["sim.seconds"] {
		t.Fatalf("hybrid overlap sim time %v not below bulk %v",
			over.Stats["sim.seconds"], bulk.Stats["sim.seconds"])
	}
}

// TestVerificationMatchesSerialOracle: every kind's norms and mass drift,
// reduced on the ranks that own the data and Allreduce'd, are what one
// serial pass over the gathered field gives — the maximum exactly (a max
// has no order), the sums to roundoff — from the wave and from a restart,
// at one task and, where the kind takes a task count, at three and six.
func TestVerificationMatchesSerialOracle(t *testing.T) {
	wave := core.DefaultProblem(18, 4)
	restart := core.DefaultProblem(18, 3)
	restart.Initial, restart.T0 = restartField(restart.N), 1.25
	for _, p := range []core.Problem{wave, restart} {
		p, err := p.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		start := p.Initial
		if start == nil {
			start = grid.NewField(p.N, 1)
			grid.FillGaussian(start, p.Wave)
		}
		mass0 := start.InteriorSum()
		tEnd := p.T0 + p.Nu*float64(p.Steps)
		exact := func(i, j, k int) float64 { return p.Wave.Analytic(p.N, p.C, tEnd, i, j, k) }
		for _, k := range allKinds {
			for _, tasks := range []int{1, 3, 6} {
				if tasks > 1 && !k.UsesMPI() {
					continue
				}
				res := run(t, k, p, core.Options{Tasks: tasks, Threads: 2, BlockX: 8, BlockY: 4, Verify: true})
				name := fmt.Sprintf("%v tasks=%d restart=%v", k, tasks, p.Initial != nil)
				want, mass := grid.NormsAgainst(res.Final, exact), res.Final.InteriorSum()
				if res.Norms.LInf != want.LInf {
					t.Errorf("%s: LInf %v, serial oracle %v", name, res.Norms.LInf, want.LInf)
				}
				if math.Abs(res.Norms.L2-want.L2) > 1e-12*want.L2 {
					t.Errorf("%s: L2 %v, serial oracle %v", name, res.Norms.L2, want.L2)
				}
				if drift := math.Abs(mass - mass0); math.Abs(res.MassDrift-drift) > 1e-12*math.Abs(mass) {
					t.Errorf("%s: mass drift %v, serial oracle %v", name, res.MassDrift, drift)
				}
			}
		}
	}
}

func TestMessageCountMatchesModel(t *testing.T) {
	// The functional bulk implementation must send exactly the message
	// count the performance model assumes: 6 per task per step (2 per
	// dimension phase) when no dimension is a self-neighbor.
	// The final gather is a fixed collective cost, so compare the delta
	// between two step counts.
	perStep := func(k core.Kind, o core.Options) float64 {
		t.Helper()
		a := run(t, k, core.DefaultProblem(16, 5), o)
		b := run(t, k, core.DefaultProblem(16, 10), o)
		return (b.Stats["mpi.messages"] - a.Stats["mpi.messages"]) / 5
	}
	if got := perStep(core.BulkSync, core.Options{Tasks: 8}); got != 6*8 { // P = 2x2x2
		t.Fatalf("bulk sends %v messages/step, model assumes %v", got, 6*8)
	}
	// The nonblocking variant exchanges the same volume.
	if got := perStep(core.NonblockingOverlap, core.Options{Tasks: 8}); got != 6*8 {
		t.Fatalf("nonblocking sends %v messages/step, want %v", got, 6*8)
	}
	// Wide halos divide the message count by W.
	if got := perStep(core.WideHaloExt, core.Options{Tasks: 8, HaloWidth: 5}); got != 6*8/5.0 {
		t.Fatalf("wide halo sends %v messages/step, want %v", got, 6*8/5.0)
	}
}

func TestTasksPerGPUSharingSlowsSimTime(t *testing.T) {
	// Two tasks sharing one device (the paper's tunable, §IV-F) must show
	// more simulated time than two tasks with a device each — the kernels
	// and DMA serialize on the shared engine — while the numerical result
	// stays identical.
	p := core.DefaultProblem(24, 3)
	own := run(t, core.GPUBulkSync, p,
		core.Options{Tasks: 2, BlockX: 8, BlockY: 4, GPU: core.GPUC1060})
	shared := run(t, core.GPUBulkSync, p,
		core.Options{Tasks: 2, BlockX: 8, BlockY: 4, GPU: core.GPUC1060, TasksPerGPU: 2})
	if shared.Stats["sim.seconds"] <= own.Stats["sim.seconds"] {
		t.Fatalf("shared device sim %.3g not above dedicated %.3g",
			shared.Stats["sim.seconds"], own.Stats["sim.seconds"])
	}
	if nm := grid.DiffNorms(shared.Final, own.Final); nm.LInf != 0 {
		t.Fatalf("device sharing changed the numerics: %+v", nm)
	}
}

func TestTasksPerGPUHybridAgrees(t *testing.T) {
	p := core.DefaultProblem(16, 3)
	want := reference(t, p)
	res := run(t, core.HybridOverlap, p,
		core.Options{Tasks: 4, Threads: 2, BlockX: 8, BlockY: 4, TasksPerGPU: 4})
	agree(t, "hybrid shared device", res.Final, want)
	if res.Stats["gpu.kernels"] == 0 {
		t.Fatal("no kernels recorded from the shared pool")
	}
}

// TestStatsKeys pins the one stats vocabulary the scaffold reports: what
// every kind, every multi-task kind and every device kind carries, plus the
// schedule's own keys — and nothing else, verified or not.
func TestStatsKeys(t *testing.T) {
	common := []string{"tasks", "threads"}
	mpi := []string{"mpi.messages", "mpi.values", "mpi.bytes", "mpi.msgs/step"}
	device := []string{"blockx", "blocky", "gpu.kernels", "pcie.bytes", "sim.seconds", "sim.gf"}
	want := map[core.Kind][][]string{
		core.SingleTask:         {common},
		core.BulkSync:           {common, mpi},
		core.NonblockingOverlap: {common, mpi},
		core.ThreadedOverlap:    {common, mpi},
		core.GPUResident:        {common, device},
		core.GPUBulkSync:        {common, mpi, device},
		core.GPUStreams:         {common, mpi, device},
		core.HybridBulkSync:     {common, mpi, device, {"thickness"}},
		core.HybridOverlap:      {common, mpi, device, {"thickness"}},
		core.WideHaloExt:        {common, mpi, {"halo.width"}},
	}
	p := core.DefaultProblem(12, 2)
	for _, k := range allKinds {
		for _, verify := range []bool{true, false} {
			o := core.Options{Tasks: 2, Threads: 2, BlockX: 8, BlockY: 4, Verify: verify}
			if !k.UsesMPI() {
				o.Tasks = 1
			}
			got := run(t, k, p, o).Stats
			for _, group := range want[k] {
				for _, key := range group {
					if _, ok := got[key]; !ok {
						t.Errorf("%v verify=%v: stats lack %q", k, verify, key)
					}
					delete(got, key)
				}
			}
			if len(got) != 0 {
				t.Errorf("%v verify=%v: unexpected stats %v", k, verify, got)
			}
		}
	}
}
