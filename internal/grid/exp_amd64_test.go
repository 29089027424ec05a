package grid

import (
	"math"
	"testing"
)

// TestExpProbeSeparatesThePaths: at each probe argument, math.Exp's plain
// path — transcribed below from GOROOT/src/math/exp_amd64.s — rounds
// differently from its FMA path, so a math.Exp forced onto the plain path
// fails the probe and the vector body stays off. And where math.Exp takes
// its FMA path on a CPU with AVX2 and FMA, the body is on: a body that
// disagreed with math.Exp at the probe would switch itself off, and every
// other test would pass on the scalar loop.
func TestExpProbeSeparatesThePaths(t *testing.T) {
	if !cpuHasAVX2FMA() {
		t.Skip("CPU has no AVX2 and FMA")
	}
	const (
		log2e = 1.4426950408889634073599246810018920
		ln2u  = 0.69314718055966295651160180568695068359375
		ln2l  = 0.28235290563031577122588448175013436025525412068e-12
	)
	taylor := []float64{1.9841269841269841270e-4, 1.3888888888888888889e-3, 8.3333333333333333333e-3,
		4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}
	plain := func(x float64) float64 {
		k := math.RoundToEven(float64(x * log2e))
		x = float64(x - float64(k*ln2u))
		x = float64(x - float64(k*ln2l))
		x *= 0.0625
		p := 2.4801587301587301587e-5
		for _, c := range taylor {
			p = float64(p*x) + c
		}
		x *= p
		for i := 0; i < 4; i++ {
			x *= x + 2
		}
		return (x + 1) * math.Float64frombits(uint64(int64(k)+1023)<<52)
	}
	// The two paths differ in the last bit only, and only now and then: a
	// transcription that disagreed everywhere would separate nothing.
	agree := 0
	for i := 0; i < 1000; i++ {
		if x := -float64(i) / 25; plain(x) == math.Exp(x) {
			agree++
		}
	}
	if agree < 800 {
		t.Fatalf("the transcribed plain path agrees with math.Exp at %d of 1000 arguments", agree)
	}
	if plain(-expProbe[0]) == math.Exp(-expProbe[0]) {
		if useExpAVX {
			t.Fatal("the vector body is on, but math.Exp takes its plain path")
		}
		t.Skip("math.Exp takes its plain path here")
	}
	for _, x := range expProbe {
		if fma := math.Exp(-x); plain(-x) == fma {
			t.Errorf("probe %v: the plain path also gives %v", x, fma)
		}
	}
	if !useExpAVX {
		t.Error("math.Exp takes its FMA path, but the vector body disagrees with it at the probe")
	}
}
