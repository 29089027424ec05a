package loc

import (
	"bufio"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestPaperFiguresMatchText(t *testing.T) {
	single, exact := PaperLoC(core.SingleTask)
	if single != 215 || !exact {
		t.Fatalf("single task = %d (exact=%v), want 215 stated", single, exact)
	}
	full, exact := PaperLoC(core.HybridOverlap)
	if full != 860 || !exact {
		t.Fatalf("full overlap = %d (exact=%v), want 860 stated", full, exact)
	}
	// "exactly four times as many lines (860 versus 215)"
	if full != 4*single {
		t.Fatalf("full/single = %d/%d, want exactly 4x", full, single)
	}
}

func TestPaperMPIGrowthBand(t *testing.T) {
	// "MPI parallelization adds 57-73% more lines, with the nonblocking
	// overlap adding the most."
	single, _ := PaperLoC(core.SingleTask)
	for _, k := range []core.Kind{core.BulkSync, core.NonblockingOverlap, core.ThreadedOverlap} {
		v, _ := PaperLoC(k)
		growth := float64(v-single) / float64(single)
		if growth < 0.55 || growth > 0.75 {
			t.Fatalf("%v growth %.2f outside the 57-73%% band", k, growth)
		}
	}
	nb, _ := PaperLoC(core.NonblockingOverlap)
	bulk, _ := PaperLoC(core.BulkSync)
	threaded, _ := PaperLoC(core.ThreadedOverlap)
	if nb <= bulk || nb <= threaded {
		t.Fatal("nonblocking must add the most lines")
	}
}

func TestPaperGPUGrowth(t *testing.T) {
	// "Targeting a single GPU ... uses just 6% more lines ... adding MPI
	// parallelism to the GPU computation almost triples the number of
	// lines."
	single, _ := PaperLoC(core.SingleTask)
	gpu, _ := PaperLoC(core.GPUResident)
	if g := float64(gpu-single) / float64(single); g < 0.05 || g > 0.07 {
		t.Fatalf("GPU growth %.3f, want ~6%%", g)
	}
	gpuMPI, _ := PaperLoC(core.GPUBulkSync)
	if r := float64(gpuMPI) / float64(gpu); r < 2.5 || r > 3.1 {
		t.Fatalf("GPU MPI ratio %.2f, want almost 3x", r)
	}
}

func TestPaperMonotoneComplexity(t *testing.T) {
	// Within each family, more overlap machinery means more lines.
	pairs := [][2]core.Kind{
		{core.SingleTask, core.BulkSync},
		{core.BulkSync, core.NonblockingOverlap},
		{core.GPUResident, core.GPUBulkSync},
		{core.GPUBulkSync, core.GPUStreams},
		{core.GPUStreams, core.HybridBulkSync},
		{core.HybridBulkSync, core.HybridOverlap},
	}
	for _, p := range pairs {
		a, _ := PaperLoC(p[0])
		b, _ := PaperLoC(p[1])
		if b <= a {
			t.Fatalf("%v (%d) should exceed %v (%d)", p[1], b, p[0], a)
		}
	}
}

func TestCountReader(t *testing.T) {
	src := `// a comment
package x

func f() int { // trailing comments do not make a line a comment
	return 1
}
`
	sc := bufio.NewScanner(strings.NewReader(src))
	if n := CountReader(sc, "//"); n != 4 {
		t.Fatalf("counted %d, want 4", n)
	}
}

func TestCountReaderFortranStyle(t *testing.T) {
	src := `! comment
program advect
  u = 0
!
end program
`
	sc := bufio.NewScanner(strings.NewReader(src))
	if n := CountReader(sc, "!"); n != 3 {
		t.Fatalf("counted %d, want 3", n)
	}
}

func TestOursLoCCounts(t *testing.T) {
	for _, k := range core.Kinds() {
		n, err := OursLoC(k)
		if err != nil {
			t.Skipf("source tree not available: %v", err)
		}
		if n < 50 {
			t.Fatalf("%v: suspiciously few lines (%d)", k, n)
		}
	}
	// Relative ordering must mirror the paper's qualitative finding: every
	// schedule has its own count, and within each family more overlap
	// machinery costs more code than the bulk parent.
	n := map[core.Kind]int{}
	seen := map[int]core.Kind{}
	for _, k := range core.Kinds() {
		n[k], _ = OursLoC(k)
		if other, dup := seen[n[k]]; dup {
			t.Errorf("%v and %v both count %d lines: Figure 2 cannot tell them apart", other, k, n[k])
		}
		seen[n[k]] = k
	}
	for _, pair := range [][2]core.Kind{
		{core.SingleTask, core.BulkSync},
		{core.BulkSync, core.NonblockingOverlap},
		{core.BulkSync, core.ThreadedOverlap},
		{core.GPUResident, core.GPUBulkSync},
		{core.GPUBulkSync, core.GPUStreams},
		{core.GPUStreams, core.HybridBulkSync},
		{core.HybridBulkSync, core.HybridOverlap},
	} {
		if n[pair[0]] >= n[pair[1]] {
			t.Errorf("%v (%d lines) should cost less than %v (%d)", pair[0], n[pair[0]], pair[1], n[pair[1]])
		}
	}
	// The single-GPU code counts the device state and its one kernel, not
	// the boundary kernels of the multi-GPU codes: its growth over
	// single-task stays below what the paper's MPI costs (bulk, +57 %) —
	// the paper's own figure is +6 %, ours pays for the device plumbing
	// CUDA Fortran provides.
	paperSingle, _ := PaperLoC(core.SingleTask)
	paperBulk, _ := PaperLoC(core.BulkSync)
	gpuGrowth := float64(n[core.GPUResident]-n[core.SingleTask]) / float64(n[core.SingleTask])
	if bulkSized := float64(paperBulk-paperSingle) / float64(paperSingle); gpuGrowth >= bulkSized {
		t.Errorf("gpu grows %.0f%% over single, a bulk-sized growth is %.0f%%", 100*gpuGrowth, 100*bulkSized)
	}
}

func TestFigure2Rows(t *testing.T) {
	rows, err := Figure2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 9 {
		t.Fatalf("%d rows, want 9", len(rows))
	}
	for _, r := range rows {
		if r.Paper <= 0 {
			t.Fatalf("%v: no paper count", r.Kind)
		}
	}
}

func TestCountFileMissing(t *testing.T) {
	if _, err := CountFile("/nonexistent/file.go"); err == nil {
		t.Fatal("missing file accepted")
	}
}
