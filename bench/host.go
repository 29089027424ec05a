package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// hostInfo describes the machine the numbers were taken on.
func hostInfo() map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        procField("/proc/cpuinfo", "model name"),
		"os":         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// procField returns the value of the first "key : value" line of a /proc
// text file, or "" when the file or the key is absent.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// rssMB returns the process's resident set (VmRSS), falling back to the Go
// runtime's view where /proc is missing.
func rssMB() float64 {
	if v := strings.Fields(procField("/proc/self/status", "VmRSS")); len(v) > 0 {
		if kb, err := strconv.ParseFloat(v[0], 64); err == nil {
			return kb / 1024
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}

var spinSink float64

// spinMS times a fixed arithmetic loop. The loop never changes, so a
// reading that moves between the start and the end of a run marks a host
// whose speed changed under the benchmark.
func spinMS() float64 {
	best := 0.0
	for rep := 0; rep < 3; rep++ {
		t0 := time.Now()
		x := 1.0
		for i := 0; i < 4_000_000; i++ {
			x = x*1.0000001 + 1e-9
		}
		spinSink = x
		if ms := time.Since(t0).Seconds() * 1e3; rep == 0 || ms < best {
			best = ms
		}
	}
	return best
}

// timeOp returns the median seconds per call of fn over reps batches. The
// batch size is calibrated first, by doubling until one batch lasts minDur,
// and the clock is read once per batch: a nanosecond-scale fn is not charged
// a clock read per call.
func timeOp(reps int, minDur time.Duration, fn func()) float64 {
	batch := func(n int) time.Duration {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		return time.Since(t0)
	}
	n := 1
	for batch(n) < minDur { // the first batches also warm fn up
		n *= 2
	}
	per := make([]float64, reps)
	for r := range per {
		per[r] = batch(n).Seconds() / float64(n)
	}
	return median(per)
}

// refNominalMLUPS defines the nominal host: the one on which refSolve
// advances 64 million lattice points a second, which is about what it does
// on the two-vCPU reference host while the neighbours are busy.
const refNominalMLUPS = 64

// steadyWithin is how far apart the readings of the yardstick before and
// after a timed operation may lie for the operation to count: readings a few
// seconds apart agree to 2–5 % while the host holds its speed and differ by a
// factor of two or three when it changes it.
const steadyWithin = 0.15

// yardstick reads the host's speed with refSolve on one problem and converts
// durations measured between two readings into durations on the nominal
// host. The same code runs up to three times faster or slower on the shared
// reference host from one quarter of a minute to the next; a duration divided
// by the reference solver's, taken on both sides of it, repeats. A nil
// yardstick converts nothing.
type yardstick struct {
	n, steps int
	verify   bool
	reads    int // runs of the solver per reading; their median counts
	mass     float64
	tr       *tracer
	ops      *ops

	speed           float64   // the last reading: the host's speed as a share of the nominal host's
	mlups           []float64 // every run of the solver
	steady, changed int       // timed operations the host did and did not hold its speed through
}

func newYardstick(c *runCtx, n, steps int, verify bool, reads int) *yardstick {
	return &yardstick{n: n, steps: steps, verify: verify, reads: reads,
		mass: refSolve(n, 0, false), tr: c.tr, ops: c.ops, speed: 1}
}

// read times the reference solver and records the host's speed. Every run of
// the solver checks that it conserved the field's sum.
func (y *yardstick) read() {
	if y == nil {
		return
	}
	now := make([]float64, y.reads)
	for i := range now {
		y.ops.attempted++
		runtime.GC() // as before every timed run of the program
		id := y.tr.begin("bench.yardstick", 0, 0)
		t0 := time.Now()
		mass := refSolve(y.n, y.steps, y.verify)
		sec := time.Since(t0).Seconds()
		pts := float64(y.n*y.n*y.n) * float64(y.steps)
		y.tr.end(id, pts)
		if math.Abs(mass-y.mass) > 1e-9*y.mass {
			y.ops.fail("reference solver: field sum %g after %d steps, %g before", mass, y.steps, y.mass)
		}
		now[i] = pts / sec / 1e6
	}
	y.mlups = append(y.mlups, now...)
	y.speed = median(now) / refNominalMLUPS
}

// nominal closes the bracket around an operation timed since the last
// reading: it reads the yardstick again and returns what multiplies the
// operation's seconds to give seconds on the nominal host — the mean of the
// host's speed before and after — and whether the two readings agree, that
// is, whether the host held its speed through the operation. The new
// reading opens the next bracket.
func (y *yardstick) nominal() (factor float64, steady bool) {
	if y == nil {
		return 1, true
	}
	before := y.speed
	y.read()
	steady = math.Abs(y.speed-before) <= steadyWithin*math.Min(y.speed, before)
	if steady {
		y.steady++
	} else {
		y.changed++
	}
	return (before + y.speed) / 2, steady
}

// samples collects one metric's timed operations of a run in nominal-host
// units: those the host held its speed through, and the rest.
type samples struct{ steady, rough []float64 }

func (s *samples) add(v float64, steady bool) {
	if steady {
		s.steady = append(s.steady, v)
	} else {
		s.rough = append(s.rough, v)
	}
}

// all returns the samples to report: the steady ones, or every one when the
// host left fewer than three of them.
func (s *samples) all() []float64 {
	if len(s.steady) >= 3 {
		return s.steady
	}
	return append(append([]float64(nil), s.steady...), s.rough...)
}
