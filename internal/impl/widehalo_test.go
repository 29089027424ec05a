package impl

import (
	"testing"

	"repro/internal/core"
)

func TestWideHaloMatchesReference(t *testing.T) {
	p := core.DefaultProblem(15, 7) // 7 steps: exercises a short final burst
	want := reference(t, p)
	for _, tasks := range []int{1, 2, 3, 4, 8} {
		for _, width := range []int{1, 2, 3} {
			res := run(t, core.WideHaloExt, p, core.Options{Tasks: tasks, Threads: 2, HaloWidth: width})
			agree(t, "wide-halo", res.Final, want)
		}
	}
}

func TestWideHaloSendsFewerMessages(t *testing.T) {
	p := core.DefaultProblem(16, 8)
	narrow := run(t, core.WideHaloExt, p, core.Options{Tasks: 8, HaloWidth: 1})
	wide := run(t, core.WideHaloExt, p, core.Options{Tasks: 8, HaloWidth: 4})
	if wide.Stats["mpi.messages"] >= narrow.Stats["mpi.messages"]/3 {
		t.Fatalf("wide halo sent %v messages vs %v narrow; expected ~4x fewer",
			wide.Stats["mpi.messages"], narrow.Stats["mpi.messages"])
	}
}

func TestWideHaloRejectsThinSubdomains(t *testing.T) {
	p := core.DefaultProblem(8, 1)
	r, err := core.New(core.WideHaloExt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(p, core.Options{Tasks: 8, HaloWidth: 5}); err == nil {
		t.Fatal("oversized halo width accepted")
	}
}
