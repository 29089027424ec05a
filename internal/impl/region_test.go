package impl

import (
	"bytes"
	"runtime"
	"strconv"
	"sync"
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// goroutineID reads the calling goroutine's number from its stack header,
// "goroutine N [running]:".
func goroutineID() int {
	var buf [64]byte
	f := bytes.Fields(buf[:runtime.Stack(buf[:], false)])
	id, _ := strconv.Atoi(string(f[1]))
	return id
}

// TestSmallRegionRunsOnTheRanksGoroutine: on a rank of two threads, a 16³
// region (4 096 points, under minParallelPoints) runs as OpenMP's parallel
// for if(false) does — every row in one share on the rank's own goroutine,
// no worker woken — and a 32³ region (32 768 points) wakes the team, whose
// workers run every share. Either way the region records its one
// par.region span.
func TestSmallRegionRunsOnTheRanksGoroutine(t *testing.T) {
	type share struct{ lo, hi, g int }
	for _, c := range []struct {
		n      int
		shares int
		caller bool // the shares run on the rank's goroutine
	}{
		{16, 1, true},
		{32, 2, false},
	} {
		rec := obs.NewRecorder()
		r := &rank{whole: stencil.Whole(grid.Uniform(c.n))}
		r.o.Rec = rec
		r.setTeams(2)
		var mu sync.Mutex
		var shares []share
		r.rows = func(lo, hi int) {
			mu.Lock()
			shares = append(shares, share{lo, hi, goroutineID()})
			mu.Unlock()
		}
		r.compute(obs.PhaseInterior, "whole", r.whole)
		r.team.Close()

		rows, me := stencil.Rows(r.whole), goroutineID()
		covered := 0
		for _, s := range shares {
			covered += s.hi - s.lo
			if (s.g == me) != c.caller {
				t.Errorf("%d³: share [%d, %d) ran on goroutine %d, the rank's is %d; want on the rank's %v", c.n, s.lo, s.hi, s.g, me, c.caller)
			}
		}
		if len(shares) != c.shares || covered != rows {
			t.Errorf("%d³: %d shares covering %d rows, want %d covering %d", c.n, len(shares), covered, c.shares, rows)
		}
		regions := 0
		for _, s := range rec.Spans() {
			if s.Phase == obs.PhaseRegion {
				regions++
			}
		}
		if regions != 1 {
			t.Errorf("%d³: %d par.region spans, want 1", c.n, regions)
		}
	}
}
