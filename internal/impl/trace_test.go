package impl

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/obs"
)

// pcieUnderKernel runs kind with a recorder and returns the report's device
// pair: how much simulated PCIe time ran concurrently with kernels.
func pcieUnderKernel(t *testing.T, k core.Kind, p core.Problem, o core.Options) obs.PairOverlap {
	t.Helper()
	o.Rec = obs.NewRecorder()
	run(t, k, p, o)
	return o.Rec.Report().Pair(obs.PairPCIeKernel)
}

// TestOverlapTraceDistinguishesImplementations verifies, from the recorded
// simulated timelines, that the overlap implementations actually overlap:
// the stream implementation (§IV-G) and the full-overlap hybrid (§IV-I)
// run PCIe traffic concurrently with kernels, while the bulk GPU schedule
// (§IV-F) serializes every copy against every kernel and the bulk hybrid
// (§IV-H) hides less than its overlap counterpart.
func TestOverlapTraceDistinguishesImplementations(t *testing.T) {
	p := core.DefaultProblem(32, 3)
	o := core.Options{Tasks: 1, Threads: 2, BlockX: 16, BlockY: 8, BoxThickness: 1}

	f := pcieUnderKernel(t, core.GPUBulkSync, p, o)
	g := pcieUnderKernel(t, core.GPUStreams, p, o)
	h := pcieUnderKernel(t, core.HybridBulkSync, p, o)
	i := pcieUnderKernel(t, core.HybridOverlap, p, o)

	if f.CommSec == 0 || f.WorkSec == 0 || g.CommSec == 0 || g.WorkSec == 0 {
		t.Fatal("device timelines not recorded")
	}
	// Bulk: everything serialized, so no copy runs under a kernel.
	if f.OverlapSec > 1e-9 {
		t.Fatalf("GPU bulk-sync shows %.3g s of overlap; it must serialize", f.OverlapSec)
	}
	// Streams: the PCIe chain must overlap the interior kernel.
	if g.OverlapSec <= 0 {
		t.Fatal("GPU streams hides no PCIe time under its kernels")
	}
	// Full-overlap hybrid: same, and more than its bulk variant.
	if i.OverlapSec <= h.OverlapSec {
		t.Fatalf("hybrid overlap (%.3g s) should out-overlap hybrid bulk (%.3g s)", i.OverlapSec, h.OverlapSec)
	}
}

// TestTraceOffByDefault: the device timeline is recorded in one place, the
// run's recorder — never into Result.Stats, traced or not — and a run
// without a recorder records nothing.
func TestTraceOffByDefault(t *testing.T) {
	p := core.DefaultProblem(16, 1)
	for _, rec := range []*obs.Recorder{nil, obs.NewRecorder()} {
		res := run(t, core.GPUStreams, p, core.Options{Tasks: 1, BlockX: 8, BlockY: 4, Rec: rec})
		for key := range res.Stats {
			if strings.HasPrefix(key, "trace.") {
				t.Fatalf("stats carry %q; the timeline belongs to the recorder", key)
			}
		}
		if (rec.Len() > 0) != (rec != nil) {
			t.Fatalf("recorder %v holds %d spans", rec != nil, rec.Len())
		}
	}
}
