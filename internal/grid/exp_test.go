package grid

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameAsExp fails unless expRow of every (y2, z2) pair of tab is
// math.Exp(-(x2+y2+z2)/den) bit for bit, and reports whether the vector
// body took part.
func sameAsExp(t *testing.T, what string, tab *GaussianTable) (vector bool) {
	t.Helper()
	dst := make([]float64, len(tab.x2))
	for _, z2 := range tab.z2 {
		for _, y2 := range tab.y2 {
			tab.expRow(dst, y2, z2)
			for i, x2 := range tab.x2 {
				want := math.Exp(-(x2 + y2 + z2) / tab.den)
				if math.Float64bits(dst[i]) != math.Float64bits(want) {
					t.Fatalf("%s: exp(-(%v+%v+%v)/%v) is %v (%#x) in the row, %v (%#x) from math.Exp",
						what, x2, y2, z2, tab.den, dst[i], math.Float64bits(dst[i]), want, math.Float64bits(want))
				}
			}
		}
	}
	return useExpAVX && tab.tame && len(tab.x2) >= 4
}

// TestGaussRowMatchesMathExp holds expRow — on amd64 with AVX2 and FMA,
// the vector body with math.Exp on the tail — to math.Exp, the scalar
// loop's own call, bit for bit: random arguments across the tame range and
// beyond it (NaN, ±Inf, den ≤ 0, the underflow range), every row length
// 0–19, and every row of the default tables at 16³, 48³, 127³ and 128³ and
// of a table at t > 0.
func TestGaussRowMatchesMathExp(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1, 1e-310, math.MaxFloat64}
	// draw returns an axis entry: mostly a square of the scale, sometimes a
	// special value.
	draw := func(scale float64) float64 {
		if rng.Intn(16) == 0 {
			return specials[rng.Intn(len(specials))]
		}
		d := rng.Float64() * scale
		return d * d
	}
	dens := []float64{1, 0.5, 3.2e-3, 0, -2, math.NaN(), math.Inf(1), 1e-300}
	vector := 0
	const trials = 4000
	for trial := 0; trial < trials; trial++ {
		n := trial % 20
		// Scales up to 60: with den 1 the arguments reach -10⁴, past the
		// tame bound and past exp's underflow to 0 at -745.
		scale := []float64{0.1, 3, 15, 27, 60}[rng.Intn(5)]
		x2 := make([]float64, n)
		for i := range x2 {
			x2[i] = draw(scale)
		}
		y2, z2 := []float64{draw(scale), draw(scale)}, []float64{draw(scale)}
		den := 2 * scale * scale * rng.Float64()
		if rng.Intn(4) == 0 {
			den = dens[rng.Intn(len(dens))]
		}
		vector += btoi(sameAsExp(t, fmt.Sprintf("trial %d", trial), newGaussianTable(x2, y2, z2, den)))
	}
	if useExpAVX && vector < trials/4 {
		t.Errorf("the vector body ran in %d of %d random trials", vector, trials)
	}
	// Arguments near the tame bound, finite and not: the bound's own table
	// takes the vector body, one just past it the scalar loop.
	for _, r := range []float64{expTame, math.Nextafter(expTame, 1000), 745.2, 1e6} {
		tab := newGaussianTable([]float64{r, r / 2, r / 3, 0, r}, []float64{0}, []float64{0}, 1)
		if vector := sameAsExp(t, fmt.Sprintf("bound %v", r), tab); useExpAVX && vector != (r <= expTame) {
			t.Errorf("bound %v: the vector body ran: %v", r, vector)
		}
	}

	vector = 0
	for _, size := range []int{16, 48, 127, 128} {
		n := Uniform(size)
		vector += btoi(sameAsExp(t, fmt.Sprintf("default %d³", size), DefaultGaussian(n).Table(n, Velocity{}, 0, Subdomain{Size: n})))
	}
	n := Dims{X: 37, Y: 21, Z: 18}
	box := Subdomain{Lo: Dims{X: 30, Y: -5, Z: 9}, Size: Dims{X: 23, Y: 21, Z: 18}}
	vector += btoi(sameAsExp(t, "t > 0", DefaultGaussian(n).Table(n, Velocity{X: 1, Y: -0.5, Z: 0.25}, 17.3, box)))
	if useExpAVX && vector != 5 {
		t.Errorf("the vector body ran on %d of the 5 default tables, want all", vector)
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// FuzzGaussRow is TestGaussRowMatchesMathExp's property on fuzzed rows:
// the row as drawn, whatever its values, and the same row folded into the
// tame range, where the vector body runs.
func FuzzGaussRow(f *testing.F) {
	f.Add(0.25, 9.0, 100.0, 1.5, 0.0, 8.0, uint8(11))
	f.Add(math.Inf(1), 1e-300, -3.0, math.NaN(), 2.5, -1.0, uint8(19))
	f.Add(700.0, 745.0, 1e308, 0.0, 0.0, 1.0, uint8(4))
	f.Fuzz(func(t *testing.T, a, b, c, y2, z2, den float64, n uint8) {
		x2 := make([]float64, n%20)
		for i := range x2 {
			x2[i] = [3]float64{a, b, c}[i%3] * float64(1+i/3)
		}
		sameAsExp(t, "as drawn", newGaussianTable(x2, []float64{y2}, []float64{z2}, den))
		// fold maps a value into [0, 10⁴); with den 64 the three terms stay
		// within 3·10⁴/64 < expTame.
		fold := func(v float64) float64 {
			if v = math.Mod(math.Abs(v), 1e4); v != v {
				return 0
			}
			return v
		}
		for i := range x2 {
			x2[i] = fold(x2[i])
		}
		tab := newGaussianTable(x2, []float64{fold(y2)}, []float64{fold(z2)}, 64)
		if !tab.tame {
			t.Fatalf("folded row %v is not tame", x2)
		}
		sameAsExp(t, "folded", tab)
	})
}
