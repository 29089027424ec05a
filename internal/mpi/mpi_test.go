package mpi

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

func TestSendRecvRoundTrip(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		switch c.Rank() {
		case 0:
			c.Send(1, 7, []float64{1, 2, 3})
		case 1:
			buf := make([]float64, 3)
			n := c.Recv(0, 7, buf)
			if n != 3 || buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
				t.Errorf("recv got %v (n=%d)", buf, n)
			}
		}
	})
}

func TestSendBufferReusable(t *testing.T) {
	// Eager sends must copy: mutating the buffer after Send cannot change
	// the delivered payload.
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			data := []float64{42}
			c.Send(1, 0, data)
			data[0] = -1
			c.Send(1, 0, data)
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 0, buf)
			if buf[0] != 42 {
				t.Errorf("first message mutated: %v", buf[0])
			}
			c.Recv(0, 0, buf)
			if buf[0] != -1 {
				t.Errorf("second message wrong: %v", buf[0])
			}
		}
	})
}

func TestNonOvertaking(t *testing.T) {
	// Messages between one (sender, receiver, tag) pair arrive in order.
	w := NewWorld(2)
	const n = 100
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 5, []float64{float64(i)})
			}
		} else {
			buf := make([]float64, 1)
			for i := 0; i < n; i++ {
				c.Recv(0, 5, buf)
				if buf[0] != float64(i) {
					t.Errorf("message %d overtaken by %v", i, buf[0])
					return
				}
			}
		}
	})
}

func TestTagMatching(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 1, []float64{1})
			c.Send(1, 2, []float64{2})
		} else {
			buf := make([]float64, 1)
			c.Recv(0, 2, buf) // receive out of arrival order by tag
			if buf[0] != 2 {
				t.Errorf("tag 2 got %v", buf[0])
			}
			c.Recv(0, 1, buf)
			if buf[0] != 1 {
				t.Errorf("tag 1 got %v", buf[0])
			}
		}
	})
}

func TestSelfSend(t *testing.T) {
	w := NewWorld(1)
	w.Run(func(c *Comm) {
		c.Send(0, 9, []float64{5, 6})
		buf := make([]float64, 2)
		c.Recv(0, 9, buf)
		if buf[0] != 5 || buf[1] != 6 {
			t.Errorf("self recv got %v", buf)
		}
		if s := c.Stats(); s.SentMessages != 0 || s.RecvMessages != 0 {
			t.Errorf("self traffic counted: %+v", s)
		}
	})
}

// TestISendIRecvWait: a nonblocking send and receive are persistent ones
// started once (MPI_Isend is MPI_Send_init + MPI_Start, MPI_Irecv is
// MPI_Recv_init + MPI_Start), completed by Wait.
func TestISendIRecvWait(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			req := c.SendInit(1, 3, 1)
			req.Wait()[0] = 7
			req.Start()
			req.Wait()
		} else {
			req := c.RecvInit(0, 3, 1)
			req.Start()
			if got := req.Wait(); len(got) != 1 || got[0] != 7 {
				t.Errorf("receive got %v", got)
			}
			if got := req.Wait(); len(got) != 1 || got[0] != 7 {
				t.Errorf("Wait not idempotent: %v", got)
			}
		}
	})
}

func TestTruncationPanics(t *testing.T) {
	defer func() {
		p := recover()
		if p == nil {
			t.Fatal("truncation did not panic")
		}
		if !strings.Contains(p.(error).Error(), "truncation") {
			t.Fatalf("wrong panic: %v", p)
		}
	}()
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, []float64{1, 2, 3})
		} else {
			c.Recv(0, 0, make([]float64, 2))
		}
	})
}

func TestBarrierSynchronizes(t *testing.T) {
	w := NewWorld(5)
	var before atomic.Int32
	w.Run(func(c *Comm) {
		before.Add(1)
		c.Barrier()
		if before.Load() != 5 {
			t.Errorf("rank %d passed barrier early (before=%d)", c.Rank(), before.Load())
		}
	})
}

func TestBarrierReusable(t *testing.T) {
	w := NewWorld(3)
	var counter atomic.Int32
	w.Run(func(c *Comm) {
		for r := 0; r < 20; r++ {
			counter.Add(1)
			c.Barrier()
			if v := counter.Load(); v%3 != 0 {
				t.Errorf("counter %d not multiple of 3", v)
				return
			}
			c.Barrier()
		}
	})
}

// TestBarrierIsSilent: a barrier moves no values, so it adds nothing to
// any rank's Stats and records no span, whatever recorder is attached.
func TestBarrierIsSilent(t *testing.T) {
	for _, size := range []int{1, 2, 5} {
		w := NewWorld(size)
		rec := obs.NewRecorder()
		stats := make([]Stats, size)
		w.Run(func(c *Comm) {
			c.SetRecorder(rec)
			for i := 0; i < 10; i++ {
				c.Barrier()
			}
			stats[c.Rank()] = c.Stats()
		})
		for r, s := range stats {
			if s != (Stats{}) {
				t.Errorf("size %d rank %d: ten barriers left stats %+v", size, r, s)
			}
		}
		if n := rec.Len(); n != 0 {
			t.Errorf("size %d: ten barriers recorded %d spans", size, n)
		}
	}
}

func TestAllreduceSum(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16} {
		w := NewWorld(size)
		w.Run(func(c *Comm) {
			vals := []float64{float64(c.Rank()), 1}
			c.Allreduce(OpSum, vals)
			wantSum := float64(size*(size-1)) / 2
			if vals[0] != wantSum || vals[1] != float64(size) {
				t.Errorf("size %d rank %d: %v, want [%v %v]", size, c.Rank(), vals, wantSum, size)
			}
		})
	}
}

func TestAllreduceMax(t *testing.T) {
	w := NewWorld(6)
	w.Run(func(c *Comm) {
		vals := []float64{float64(c.Rank())}
		c.Allreduce(OpMax, vals)
		if vals[0] != 5 {
			t.Errorf("max = %v", vals[0])
		}
	})
}

func TestAllreduceRepeated(t *testing.T) {
	// Collectives called in a loop must not cross-match between rounds.
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		for r := 0; r < 25; r++ {
			vals := []float64{float64(r)}
			c.Allreduce(OpSum, vals)
			if vals[0] != float64(4*r) {
				t.Errorf("round %d: %v", r, vals[0])
				return
			}
		}
	})
}

func TestGather(t *testing.T) {
	w := NewWorld(4)
	w.Run(func(c *Comm) {
		send := make([]float64, c.Rank()+1) // varying lengths
		for i := range send {
			send[i] = float64(c.Rank())
		}
		out := c.Gather(2, send)
		if c.Rank() != 2 {
			if out != nil {
				t.Errorf("non-root got %v", out)
			}
			return
		}
		for r := 0; r < 4; r++ {
			if len(out[r]) != r+1 {
				t.Errorf("rank %d slice len %d", r, len(out[r]))
			}
			for _, v := range out[r] {
				if v != float64(r) {
					t.Errorf("rank %d slice value %v", r, v)
				}
			}
		}
	})
}

func TestStatsCounting(t *testing.T) {
	w := NewWorld(2)
	var stats [2]Stats
	w.Run(func(c *Comm) {
		if c.Rank() == 0 {
			c.Send(1, 0, make([]float64, 10))
			c.Send(1, 0, make([]float64, 5))
		} else {
			buf := make([]float64, 10)
			c.Recv(0, 0, buf)
			c.Recv(0, 0, buf)
		}
		stats[c.Rank()] = c.Stats()
	})
	if stats[0].SentMessages != 2 || stats[0].SentValues != 15 {
		t.Fatalf("sender stats %+v", stats[0])
	}
	if stats[1].RecvMessages != 2 || stats[1].RecvValues != 15 {
		t.Fatalf("receiver stats %+v", stats[1])
	}
}

func TestRunPanicPropagates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank panic not propagated")
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		if c.Rank() == 1 {
			panic("boom")
		}
		// Other ranks block; poisoning must release them.
		c.Recv(0, 99, make([]float64, 1))
	})
}

func TestRunPanicReleasesBarrier(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("rank panic not propagated")
		}
	}()
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		if c.Rank() == 2 {
			panic("boom")
		}
		c.Barrier()
	})
}

func TestAllreduceProperty(t *testing.T) {
	prop := func(raw []float64, sizeRaw uint8) bool {
		size := int(sizeRaw%7) + 1
		if len(raw) == 0 {
			raw = []float64{1}
		}
		for i, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				raw[i] = 0
			}
			// Keep magnitudes small so float addition error stays tiny.
			raw[i] = math.Mod(raw[i], 100)
		}
		var want float64
		w := NewWorld(size)
		results := make([]float64, size)
		w.Run(func(c *Comm) {
			vals := []float64{raw[c.Rank()%len(raw)]}
			c.Allreduce(OpSum, vals)
			results[c.Rank()] = vals[0]
		})
		for r := 0; r < size; r++ {
			want += raw[r%len(raw)]
		}
		for _, got := range results {
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestWorldSizeAndRankChecks(t *testing.T) {
	w := NewWorld(2)
	if w.Size() != 2 {
		t.Fatalf("Size = %d", w.Size())
	}
	c := w.Comm(0)
	for _, f := range []func(){
		func() { c.Send(5, 0, nil) },
		func() { c.Send(0, -3, nil) },
		func() { c.Recv(-1, 0, nil) },   // there is no wildcard source
		func() { c.RecvInit(0, -1, 1) }, // nor a wildcard tag
		func() { w.Comm(2) },
		func() { NewWorld(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestAllreduceSumOrderIndependent(t *testing.T) {
	// The binomial tree must produce the same result regardless of world
	// size parity (regression guard for tree index math).
	for size := 1; size <= 12; size++ {
		w := NewWorld(size)
		w.Run(func(c *Comm) {
			vals := []float64{1}
			c.Allreduce(OpSum, vals)
			if vals[0] != float64(size) {
				t.Errorf("size %d rank %d: sum=%v", size, c.Rank(), vals[0])
			}
		})
	}
}

func TestRandomTrafficProperty(t *testing.T) {
	// A randomized all-to-all storm: every rank sends a random number of
	// tagged messages to random peers, then receives exactly what was
	// addressed to it. Checks matching under load with many goroutines.
	prop := func(seed uint32) bool {
		size := int(seed%5) + 2
		rng := seed
		next := func() uint32 {
			rng = rng*1664525 + 1013904223
			return rng
		}
		// Precompute the traffic matrix: counts[src][dst].
		counts := make([][]int, size)
		for s := range counts {
			counts[s] = make([]int, size)
			for d := range counts[s] {
				counts[s][d] = int(next() % 4)
			}
		}
		w := NewWorld(size)
		ok := true
		w.Run(func(c *Comm) {
			me := c.Rank()
			for dst := 0; dst < size; dst++ {
				for i := 0; i < counts[me][dst]; i++ {
					c.Send(dst, me, []float64{float64(me*1000 + i)})
				}
			}
			for src := 0; src < size; src++ {
				for i := 0; i < counts[src][me]; i++ {
					buf := make([]float64, 1)
					c.Recv(src, src, buf)
					if buf[0] != float64(src*1000+i) {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestManyRanksBarrierStress(t *testing.T) {
	w := NewWorld(32)
	var counter atomic.Int64
	w.Run(func(c *Comm) {
		for r := 0; r < 10; r++ {
			counter.Add(1)
			c.Barrier()
			if v := counter.Load(); v%32 != 0 {
				t.Errorf("round %d: counter %d", r, v)
				return
			}
			c.Barrier()
		}
	})
}

// TestGatherKeepsWhatItReturns: the slices Gather hands root are root's.
// Later traffic through the same mailboxes — which recycles payload slots —
// must not write into them.
func TestGatherKeepsWhatItReturns(t *testing.T) {
	w := NewWorld(3)
	w.Run(func(c *Comm) {
		send := []float64{float64(c.Rank()), float64(10 * c.Rank())}
		out := c.Gather(0, send)
		buf := make([]float64, 2)
		for i := 0; i < 1000; i++ {
			peer := (c.Rank() + 1) % 3
			c.Send(peer, 1, []float64{-1, -2})
			c.Recv((c.Rank()+2)%3, 1, buf)
		}
		if c.Rank() != 0 {
			return
		}
		for r, part := range out {
			if len(part) != 2 || part[0] != float64(r) || part[1] != float64(10*r) {
				t.Errorf("rank %d's gathered slice reads %v after later traffic", r, part)
			}
		}
	})
}

// TestTruncatingRecvKeepsSlotsSound: a receive into a buffer too small —
// Recv's, or a persistent receive's count — still panics, and the slot of
// the message it refused goes back to the free list once: two later
// messages in flight together must not share it.
func TestTruncatingRecvKeepsSlotsSound(t *testing.T) {
	for name, refuse := range map[string]func(c *Comm){
		"recv":            func(c *Comm) { c.Recv(0, 0, make([]float64, 2)) },
		"persistent recv": func(c *Comm) { r := c.RecvInit(0, 0, 2); r.Start(); r.Wait() },
	} {
		c := NewWorld(1).Comm(0)
		c.Send(0, 0, []float64{1, 2, 3})
		func() {
			defer func() {
				if p := recover(); p == nil || !strings.Contains(p.(string), "truncation") {
					t.Fatalf("%s: recovered %v, want a truncation panic", name, p)
				}
			}()
			refuse(c)
		}()
		if box := c.world.boxes[0]; len(box.free) != 1 || len(box.q) != 0 {
			t.Fatalf("%s: after the refused message: %d free slots, %d queued; want 1, 0", name, len(box.free), len(box.q))
		}
		c.Send(0, 0, []float64{4, 5, 6})
		c.Send(0, 0, []float64{7, 8, 9})
		buf := make([]float64, 3)
		for _, want := range []float64{4, 7} {
			if c.Recv(0, 0, buf); buf[0] != want || buf[2] != want+2 {
				t.Fatalf("%s: received %v, want [%v %v %v]", name, buf, want, want+1, want+2)
			}
		}
	}
}

// TestNonOvertakingMixedSizes: payload slots recycled across messages of
// mixed sizes — a wide-halo exchange sends faces of three — keep each
// (source, tag) stream in order and every payload whole and of its own
// length. Each round queues a burst of seven on two tags, of sizes 0 to 40
// that change from round to round, so that most messages land in a slot a
// message of another size left.
func TestNonOvertakingMixedSizes(t *testing.T) {
	const burst = 7
	c := NewWorld(1).Comm(0)
	buf := make([]float64, 40)
	for round := 0; round < 50; round++ {
		size := func(i int) int { return (17*i + 29*round) % 41 }
		for i := 0; i < burst; i++ {
			msg := make([]float64, size(i))
			for j := range msg {
				msg[j] = float64(round*10000 + i*100 + j)
			}
			c.Send(0, i%2, msg)
		}
		for _, tag := range []int{1, 0} { // the later tag's stream first
			for i := tag; i < burst; i += 2 {
				if n := c.Recv(0, tag, buf); n != size(i) {
					t.Fatalf("round %d message %d: %d values, want %d", round, i, n, size(i))
				}
				for j := 0; j < size(i); j++ {
					if want := float64(round*10000 + i*100 + j); buf[j] != want {
						t.Fatalf("round %d message %d value %d reads %v, want %v", round, i, j, buf[j], want)
					}
				}
			}
		}
	}
}

// TestPersistentRecvRestarts: one RecvInit request and one SendInit
// request serve every step — Start, Wait, Start again — and a receive
// refuses a second Start while active.
func TestPersistentRecvRestarts(t *testing.T) {
	w := NewWorld(2)
	w.Run(func(c *Comm) {
		peer := 1 - c.Rank()
		recv, send := c.RecvInit(peer, 4, 1), c.SendInit(peer, 4, 1)
		for step := 0; step < 50; step++ {
			recv.Start()
			send.Wait()[0] = float64(step*10 + c.Rank())
			send.Start()
			if got := recv.Wait(); len(got) != 1 || got[0] != float64(step*10+peer) {
				t.Errorf("step %d: received %v", step, got) // no return: the peer would block
			}
		}
		recv.Start()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Start on an active request did not panic")
				}
			}()
			recv.Start()
		}()
		c.Send(peer, 4, []float64{0})
		recv.Wait()
		func() {
			defer func() {
				if recover() == nil {
					t.Error("Start on a zero Request did not panic")
				}
			}()
			new(Request).Start()
		}()
	})
}

// TestLentSlotsAreNotReusedEarly: a payload a persistent receive delivered
// stays the caller's until the request's next Start, and a buffer a
// persistent send enqueued is never the one it lends next. In both cases a
// later message of the same size goes through the same mailbox while the
// first is still held, so a slot recycled early would carry its values.
func TestLentSlotsAreNotReusedEarly(t *testing.T) {
	c := NewWorld(1).Comm(0)
	fill := func(buf []float64, v float64) {
		for i := range buf {
			buf[i] = v + float64(i)
		}
	}
	check := func(what string, got []float64, v float64) {
		t.Helper()
		if len(got) != 8 {
			t.Fatalf("%s: %d values, want 8", what, len(got))
		}
		for i, x := range got {
			if x != v+float64(i) {
				t.Fatalf("%s: value %d reads %v, want %v", what, i, x, v+float64(i))
			}
		}
	}
	a, b := make([]float64, 8), make([]float64, 8)
	fill(a, 100)
	fill(b, 200)

	recv := c.RecvInit(0, 1, 8)
	for round := 0; round < 3; round++ {
		c.Send(0, 1, a)
		recv.Start()
		got := recv.Wait()
		c.Send(0, 1, b) // B lands while A is still held
		check("held payload A", got, 100)
		recv.Start()
		check("payload B", recv.Wait(), 200)
		recv.Start()
		c.Send(0, 1, a) // the request's slot is back: no new slot needed
		check("payload A again", recv.Wait(), 100)
	}

	send := c.SendInit(0, 2, 8)
	fill(send.Wait(), 300)
	send.Start()
	fill(send.Wait(), 400) // the next message, filled before the first is received
	buf := make([]float64, 8)
	c.Recv(0, 2, buf)
	check("sent payload", buf, 300)
	send.Start()
	c.Recv(0, 2, buf)
	check("next sent payload", buf, 400)
}

// TestStatsBalanceAcrossCollectives: every message some rank counts as
// sent, another counts as received — collective-internal ones included,
// and at Gather's root too. The barriers between the collectives must not
// cross-match their traffic.
func TestStatsBalanceAcrossCollectives(t *testing.T) {
	for _, size := range []int{2, 3, 5} {
		w := NewWorld(size)
		stats := make([]Stats, size)
		w.Run(func(c *Comm) {
			vals := []float64{float64(c.Rank()), 1}
			c.Barrier()
			c.Allreduce(OpSum, vals)
			c.Barrier()
			c.Gather(0, make([]float64, 5))
			c.Barrier()
			c.Gather(size-1, make([]float64, c.Rank()+1))
			c.Barrier()
			stats[c.Rank()] = c.Stats()
		})
		var sum Stats
		for _, s := range stats {
			sum.SentMessages += s.SentMessages
			sum.SentValues += s.SentValues
			sum.RecvMessages += s.RecvMessages
			sum.RecvValues += s.RecvValues
		}
		if sum.SentMessages != sum.RecvMessages || sum.SentValues != sum.RecvValues {
			t.Errorf("size %d: %d messages (%d values) sent, %d (%d) received; per rank %+v",
				size, sum.SentMessages, sum.SentValues, sum.RecvMessages, sum.RecvValues, stats)
		}
	}
}

// TestSteadyMessagesAllocateNothing pins the exchange substrate's steady
// state: once a mailbox has slots, a send and its receive — blocking, or a
// persistent send and a persistent receive — allocate nothing.
func TestSteadyMessagesAllocateNothing(t *testing.T) {
	c := NewWorld(1).Comm(0)
	data, buf := make([]float64, 64), make([]float64, 64)
	send, recv := c.SendInit(0, 3, 64), c.RecvInit(0, 3, 64)
	for name, msg := range map[string]func(){
		"send/recv": func() {
			c.Send(0, 7, data)
			c.Recv(0, 7, buf)
		},
		"persistent send/persistent recv": func() {
			recv.Start()
			copy(send.Wait(), data)
			send.Start()
			copy(buf, recv.Wait())
		},
	} {
		if allocs := testing.AllocsPerRun(1000, msg); allocs != 0 {
			t.Errorf("%s: %.2f allocations per message, want 0", name, allocs)
		}
	}
}

// BenchmarkSendRecv64 is the unit of a halo exchange: a self-send of 64
// values and its receive, through a recycled slot.
func BenchmarkSendRecv64(b *testing.B) {
	c := NewWorld(1).Comm(0)
	data, buf := make([]float64, 64), make([]float64, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Send(0, 7, data)
		c.Recv(0, 7, buf)
	}
}
