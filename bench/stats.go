package main

import (
	"math"
	"math/rand"
	"sort"
)

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of xs by
// the rule of Python's statistics.quantiles(xs, n=4) (exclusive method), so
// spreads computed here match the driver's.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4 // outside [0,4] when clamped: extrapolates, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(xs []float64) float64 {
	_, m, _ := quartiles(xs)
	return m
}

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the samples at
// or below it.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentile returns the highest of the reporting percentiles that still
// has at least ten samples beyond it among n samples, or 50 when none has.
func tailPercentile(n int) float64 {
	best := 50.0
	for _, perMille := range []int{750, 900, 950, 990, 999} {
		if n*(1000-perMille) >= 10*1000 {
			best = float64(perMille) / 10
		}
	}
	return best
}

// spread is the distance between the quartiles as a share of the median,
// the run-to-run steadiness measure the bounds are judged against.
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return math.Inf(1)
	}
	return math.Abs((q3 - q1) / med)
}

// newRNG returns the generator of a run's inputs: they depend on the seed
// and on nothing else.
func newRNG(seed uint64) *rand.Rand { return rand.New(rand.NewSource(int64(seed))) }
