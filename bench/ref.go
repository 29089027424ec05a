package main

import (
	"math"
	"sync"
)

// refSolve is the benchmark's own plain solver, frozen with the benchmark:
// the yardstick every timing is divided by. It does the job of one
// advect.Run the plain way — allocate two fields with a one-point halo, fill
// a Gaussian, advance a 27-point stencil over a periodic domain for steps
// steps on two goroutines that own half the planes each and meet at a
// condition-variable barrier, copy the interior out, and with verify compare
// against the analytic Gaussian — so that whatever speeds the host up or
// slows it down (a neighbour on the sibling hyperthread, a stolen vCPU, the
// clock) acts on it as it acts on the program. It shares no code with the
// program, so no later change to the program moves it.
//
// It returns the sum of the final field, which the uniform weights conserve.
func refSolve(n, steps int, verify bool) float64 {
	const workers = 2
	s := n + 2
	a, b := make([]float64, s*s*s), make([]float64, s*s*s)
	var offs [27]int
	var w [27]float64
	for k := range offs {
		offs[k] = (k%3 - 1) + (k/3%3-1)*s + (k/9-1)*s*s
		w[k] = 1.0 / 27
	}
	bar := newRefBarrier(workers)
	var final []float64
	var part [workers]float64
	var wg sync.WaitGroup
	for t := 0; t < workers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			lo, hi := 1+n*t/workers, 1+n*(t+1)/workers // this worker's planes
			src, dst := a, b
			refGaussian(src, n, lo, hi, nil)
			for st := 0; st < steps; st++ {
				refHalosXY(src, n, lo, hi)
				bar.wait()
				if t == 0 { // the periodic z halos read the other worker's planes
					copy(src[:s*s], src[n*s*s:(n+1)*s*s])
					copy(src[(n+1)*s*s:], src[s*s:2*s*s])
				}
				bar.wait()
				refSweep(src, dst, n, lo, hi, &offs, &w)
				bar.wait()
				src, dst = dst, src
			}
			if t == 0 {
				final = src
			}
			bar.wait()
			if verify {
				refGaussian(final, n, lo, hi, &part[t])
			}
		}(t)
	}
	wg.Wait()
	out := make([]float64, n*n*n) // the gather
	var sum float64
	for z := 0; z < n; z++ {
		for y := 0; y < n; y++ {
			row := 1 + (y+1)*s + (z+1)*s*s
			copy(out[(z*n+y)*n:(z*n+y+1)*n], final[row:row+n])
		}
	}
	for _, v := range out {
		sum += v
	}
	refL2 = math.Sqrt(part[0] + part[1])
	return sum
}

// refL2 keeps the verification's result alive; nothing reads it.
var refL2 float64

// refGaussian fills planes [lo, hi) of f with a Gaussian, or, given diff,
// adds up the squared difference between the planes and that Gaussian: one
// exponential per point either way, as the program's fill and norms cost.
func refGaussian(f []float64, n, lo, hi int, diff *float64) {
	s := n + 2
	c, inv := float64(n)/2, 1/(2*float64(n)/8*float64(n)/8)
	var sq float64
	for z := lo; z < hi; z++ {
		for y := 1; y <= n; y++ {
			row := y*s + z*s*s
			for x := 1; x <= n; x++ {
				dx, dy, dz := float64(x)-c, float64(y)-c, float64(z)-c
				g := math.Exp(-(dx*dx + dy*dy + dz*dz) * inv)
				if diff == nil {
					f[row+x] = g
				} else {
					sq += (f[row+x] - g) * (f[row+x] - g)
				}
			}
		}
	}
	if diff != nil {
		*diff = sq
	}
}

// refHalosXY wraps the x and y halos of planes [lo, hi).
func refHalosXY(f []float64, n, lo, hi int) {
	s := n + 2
	for z := lo; z < hi; z++ {
		p := z * s * s
		for y := 1; y <= n; y++ {
			f[p+y*s] = f[p+y*s+n]
			f[p+y*s+n+1] = f[p+y*s+1]
		}
		copy(f[p:p+s], f[p+n*s:p+(n+1)*s])
		copy(f[p+(n+1)*s:p+(n+2)*s], f[p+s:p+2*s])
	}
}

// refSweep applies the stencil to planes [lo, hi) of src into dst.
func refSweep(src, dst []float64, n, lo, hi int, offs *[27]int, w *[27]float64) {
	s := n + 2
	for z := lo; z < hi; z++ {
		for y := 1; y <= n; y++ {
			base := 1 + y*s + z*s*s
			row := dst[base : base+n]
			for x := range row {
				p := base + x
				sum := w[0] * src[p+offs[0]]
				sum += w[1] * src[p+offs[1]]
				sum += w[2] * src[p+offs[2]]
				sum += w[3] * src[p+offs[3]]
				sum += w[4] * src[p+offs[4]]
				sum += w[5] * src[p+offs[5]]
				sum += w[6] * src[p+offs[6]]
				sum += w[7] * src[p+offs[7]]
				sum += w[8] * src[p+offs[8]]
				sum += w[9] * src[p+offs[9]]
				sum += w[10] * src[p+offs[10]]
				sum += w[11] * src[p+offs[11]]
				sum += w[12] * src[p+offs[12]]
				sum += w[13] * src[p+offs[13]]
				sum += w[14] * src[p+offs[14]]
				sum += w[15] * src[p+offs[15]]
				sum += w[16] * src[p+offs[16]]
				sum += w[17] * src[p+offs[17]]
				sum += w[18] * src[p+offs[18]]
				sum += w[19] * src[p+offs[19]]
				sum += w[20] * src[p+offs[20]]
				sum += w[21] * src[p+offs[21]]
				sum += w[22] * src[p+offs[22]]
				sum += w[23] * src[p+offs[23]]
				sum += w[24] * src[p+offs[24]]
				sum += w[25] * src[p+offs[25]]
				sum += w[26] * src[p+offs[26]]
				row[x] = sum
			}
		}
	}
}

// refBarrier is a counting barrier on a mutex and a condition variable, the
// way the program's ranks and threads wait for each other.
type refBarrier struct {
	mu      sync.Mutex
	cond    *sync.Cond
	parties int
	count   int
	gen     uint64
}

func newRefBarrier(parties int) *refBarrier {
	b := &refBarrier{parties: parties}
	b.cond = sync.NewCond(&b.mu)
	return b
}

func (b *refBarrier) wait() {
	b.mu.Lock()
	gen := b.gen
	b.count++
	if b.count == b.parties {
		b.count = 0
		b.gen++
		b.cond.Broadcast()
	} else {
		for gen == b.gen {
			b.cond.Wait()
		}
	}
	b.mu.Unlock()
}
