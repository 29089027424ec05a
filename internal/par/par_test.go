package par

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func coverageCheck(t *testing.T, n int, run func(body func(lo, hi int))) {
	t.Helper()
	marks := make([]int32, n)
	run(func(lo, hi int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
			return
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&marks[i], 1)
		}
	})
	for i, m := range marks {
		if m != 1 {
			t.Fatalf("iteration %d executed %d times", i, m)
		}
	}
}

func TestParallelForSchedules(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	for _, sched := range []Schedule{Static, Guided} {
		for _, n := range []int{1, 3, 4, 17, 100, 1000} {
			coverageCheck(t, n, func(body func(lo, hi int)) {
				team.ParallelFor(n, sched, 0, body)
			})
		}
	}
}

func TestParallelForChunkSizes(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	for _, chunk := range []int{1, 2, 7, 100} {
		coverageCheck(t, 50, func(body func(lo, hi int)) {
			team.ParallelFor(50, Guided, chunk, body)
		})
	}
}

func TestParallelForEmpty(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	called := false
	team.ParallelFor(0, Static, 0, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body called for empty range")
	}
}

func TestParallelForSingleWorker(t *testing.T) {
	team := NewTeam(1)
	defer team.Close()
	for _, sched := range []Schedule{Static, Guided} {
		coverageCheck(t, 25, func(body func(lo, hi int)) {
			team.ParallelFor(25, sched, 0, body)
		})
	}
}

func TestStaticChunkProperty(t *testing.T) {
	prop := func(nRaw, wRaw uint16) bool {
		n := int(nRaw % 500)
		w := int(wRaw%16) + 1
		prev := 0
		total := 0
		for tid := 0; tid < w; tid++ {
			lo, hi := StaticChunk(n, w, tid)
			if lo != prev || hi < lo {
				return false
			}
			if hi-lo > n/w+1 || (n >= w && hi-lo < n/w) {
				return false
			}
			prev = hi
			total += hi - lo
		}
		return prev == n && total == n
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunAllWorkers(t *testing.T) {
	team := NewTeam(5)
	defer team.Close()
	var seen [5]int32
	team.Run(func(tid int) { atomic.AddInt32(&seen[tid], 1) })
	for tid, c := range seen {
		if c != 1 {
			t.Fatalf("worker %d ran %d times", tid, c)
		}
	}
}

func TestRunReusable(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	var count atomic.Int32
	for r := 0; r < 50; r++ {
		team.Run(func(tid int) { count.Add(1) })
	}
	if count.Load() != 150 {
		t.Fatalf("count = %d, want 150", count.Load())
	}
}

func TestRunWithMaster(t *testing.T) {
	team := NewTeam(4)
	defer team.Close()
	var masterDone atomic.Bool
	var work atomic.Int32
	team.RunWithMaster(func() {
		masterDone.Store(true)
	}, 1000, 1, func(lo, hi int) {
		work.Add(int32(hi - lo))
	})
	if !masterDone.Load() {
		t.Fatal("master work skipped")
	}
	if work.Load() != 1000 {
		t.Fatalf("work = %d, want 1000", work.Load())
	}
}

func TestRunWithMasterSingleThread(t *testing.T) {
	// With one thread the master serializes comm before compute, like
	// OpenMP with OMP_NUM_THREADS=1.
	team := NewTeam(1)
	defer team.Close()
	order := []string{}
	var mu sync.Mutex
	team.RunWithMaster(func() {
		mu.Lock()
		order = append(order, "comm")
		mu.Unlock()
	}, 3, 1, func(lo, hi int) {
		mu.Lock()
		order = append(order, "work")
		mu.Unlock()
	})
	if len(order) == 0 || order[0] != "comm" {
		t.Fatalf("order = %v, want comm first", order)
	}
}

func TestGuidedChunksShrink(t *testing.T) {
	var s scheduler
	s.reset(1000, 4, 1)
	last := 1 << 30
	for {
		lo, hi, ok := s.next()
		if !ok {
			break
		}
		size := hi - lo
		if size > last {
			t.Fatalf("guided chunk grew: %d after %d", size, last)
		}
		last = size
	}
}

func TestGuidedChunkFloor(t *testing.T) {
	var s scheduler
	s.reset(100, 4, 10)
	for {
		lo, hi, ok := s.next()
		if !ok {
			break
		}
		if hi-lo < 10 && hi != 100 {
			t.Fatalf("chunk [%d,%d) below floor", lo, hi)
		}
	}
}

func TestNewTeamPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTeam(0) did not panic")
		}
	}()
	NewTeam(0)
}

// TestWorkerPanicReachesCaller: a panic in one worker's share of a region —
// the master's exchange in §IV-D when a peer rank has failed — surfaces on
// the goroutine that launched the region, after the other workers finished,
// and leaves the team usable.
func TestWorkerPanicReachesCaller(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	var done atomic.Int32
	func() {
		defer func() {
			if p := recover(); p != "master failed" {
				t.Fatalf("recovered %v, want the worker's panic", p)
			}
		}()
		team.RunWithMaster(func() { panic("master failed") }, 30, 1, func(lo, hi int) {
			done.Add(int32(hi - lo))
		})
	}()
	if done.Load() != 30 {
		t.Fatalf("workers finished %d of 30 iterations before the panic was raised", done.Load())
	}
	done.Store(0)
	team.ParallelFor(10, Static, 0, func(lo, hi int) { done.Add(int32(hi - lo)) })
	if done.Load() != 10 {
		t.Fatalf("team unusable after a panicked region: %d of 10 iterations", done.Load())
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Guided.String() != "guided" {
		t.Fatal("bad schedule names")
	}
	if Schedule(9).String() != "Schedule(9)" {
		t.Fatal("bad unknown schedule name")
	}
}

func TestCloseIdempotent(t *testing.T) {
	team := NewTeam(2)
	team.Close()
	team.Close() // must not panic
}

// TestReduceEmpty: a reduction is written by hand as Run over StaticChunk
// shares (the distributed norms are); over an empty range every worker's
// share is empty.
func TestReduceEmpty(t *testing.T) {
	team := NewTeam(2)
	defer team.Close()
	team.Run(func(tid int) {
		if lo, hi := StaticChunk(0, team.Size(), tid); lo != hi {
			t.Errorf("worker %d of an empty reduction got [%d, %d)", tid, lo, hi)
		}
	})
}

// TestRegionAllocations pins what a parallel region costs the allocator:
// nothing, for a team of one and of three, under every kind of region, when
// the caller passes the same body each time — so that keeping a worker's
// panic for the caller stays free when nothing panics.
func TestRegionAllocations(t *testing.T) {
	for _, n := range []int{1, 3} {
		team := NewTeam(n)
		var sink atomic.Int64
		body := func(lo, hi int) { sink.Add(int64(hi - lo)) }
		master := func() { sink.Add(1) }
		share := func(tid int) { sink.Add(int64(tid)) }
		for name, region := range map[string]func(){
			"static":        func() { team.ParallelFor(30, Static, 0, body) },
			"guided":        func() { team.ParallelFor(30, Guided, 2, body) },
			"master+guided": func() { team.RunWithMaster(master, 30, 1, body) },
			"run":           func() { team.Run(share) },
		} {
			if allocs := testing.AllocsPerRun(200, region); allocs != 0 {
				t.Errorf("team of %d: a %s region allocates %.1f times, want 0", n, name, allocs)
			}
		}
		team.Close()
	}
}

// TestTeamOfOneRunsOnTheCaller: a team of one starts no goroutine, runs its
// regions on the goroutine that launches them, and keeps the panic contract
// of a larger team — the region ends (its span closes) before the panic is
// raised, and the team stays usable.
func TestTeamOfOneRunsOnTheCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(1)
	defer team.Close()
	if after := runtime.NumGoroutine(); after > before { // workers of earlier tests may still be exiting
		t.Fatalf("a team of one started %d goroutines", after-before)
	}
	rec := obs.NewRecorder()
	team.SetRecorder(rec, 0)
	func() {
		defer func() {
			if p := recover(); p != "master failed" {
				t.Fatalf("recovered %v, want the master's panic", p)
			}
		}()
		team.RunWithMaster(func() { panic("master failed") }, 10, 1, func(lo, hi int) {})
	}()
	if spans := rec.Spans(); len(spans) != 1 || spans[0].Label != "master+guided" {
		t.Fatalf("spans %+v, want the one region's", spans)
	}
	var covered int
	team.ParallelFor(10, Static, 0, func(lo, hi int) { covered += hi - lo })
	if covered != 10 {
		t.Fatalf("team unusable after a panicked region: %d of 10 iterations", covered)
	}
}
