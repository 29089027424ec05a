package impl

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

var allKinds = append(core.Kinds(), core.WideHaloExt)

// TestCancelBeforeRun checks that an already-cancelled context stops every
// implementation at the first timestep with the context's error.
func TestCancelBeforeRun(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, k := range allKinds {
		k := k
		t.Run(k.String(), func(t *testing.T) {
			r, err := core.New(k)
			if err != nil {
				t.Fatal(err)
			}
			o := core.Options{Tasks: 2, Threads: 1, Ctx: ctx}
			if !k.UsesMPI() {
				o.Tasks = 1
			}
			_, err = r.Run(core.DefaultProblem(12, 50), o)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("want context.Canceled, got %v", err)
			}
		})
	}
}

// pollCtx is a context whose Err flips to Canceled after a set number of
// polls. The step loop polls once per rank per step, so the count picks the
// step — and the rank within it — at which the cancellation lands.
type pollCtx struct {
	context.Context
	left atomic.Int64
}

func (c *pollCtx) Err() error {
	if c.left.Add(-1) < 0 {
		return context.Canceled
	}
	return nil
}

// TestCancelMidRun cancels every implementation at a seeded step k, between
// the polls of two ranks where there are several, so some ranks see the
// cancellation and the others are already inside step k waiting for them:
// the run must end with the context's error, must not have started step
// k+1, and must leave no rank, team or world goroutine behind.
func TestCancelMidRun(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, k := range allKinds {
		k := k
		tasks := 3
		if !k.UsesMPI() {
			tasks = 1
		}
		step := 1 + rng.Intn(6)
		polls := step * tasks
		if tasks > 1 {
			polls += 1 + rng.Intn(tasks-1) // some ranks start step k, some do not
		}
		t.Run(k.String(), func(t *testing.T) {
			r, err := core.New(k)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			ctx := &pollCtx{Context: context.Background()}
			ctx.left.Store(int64(polls))
			rec := obs.NewRecorder()
			o := core.Options{Tasks: tasks, Threads: 2, BlockX: 8, BlockY: 4, Ctx: ctx, Rec: rec}
			_, err = r.Run(core.DefaultProblem(12, 1_000_000), o)
			if !errors.Is(err, ctx.Err()) {
				t.Fatalf("cancelled at step %d: want %v, got %v", step, ctx.Err(), err)
			}
			last := -1
			for _, sp := range rec.Spans() {
				last = max(last, sp.Step)
			}
			// Step k-1 ran on every rank; step k on those that polled first.
			// Wide-halo ranks meet only every HaloWidth = 2 steps, so one
			// may have polled a step ahead of the others.
			ahead := 0
			if k == core.WideHaloExt {
				ahead = 1
			}
			if last < step-1 || last > step+ahead {
				t.Fatalf("cancelled at step %d, spans reach step %d", step, last)
			}
			// Team workers exit once their closed team's signal reaches
			// them: give the scheduler the chance, then count.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before {
				buf := make([]byte, 1<<16)
				t.Fatalf("%d goroutines before the run, %d after:\n%s", before, after, buf[:runtime.Stack(buf, true)])
			}
		})
	}
}

// TestDeadlineExceeded checks that a context deadline surfaces as
// context.DeadlineExceeded through the public error chain.
func TestDeadlineExceeded(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	r, err := core.New(core.SingleTask)
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run(core.DefaultProblem(48, 1_000_000), core.Options{Ctx: ctx})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want context.DeadlineExceeded, got %v", err)
	}
}
