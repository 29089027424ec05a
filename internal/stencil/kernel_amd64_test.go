package stencil

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// TestApplyRowVectorMatchesGo holds the AVX row body to the Go loop, bit for
// bit: every row length on both sides of the m ≥ 8 threshold, subdomains
// starting at odd x, wide-halo regions, ragged ApplyRows partitions and a
// whole 128³ field.
func TestApplyRowVectorMatchesGo(t *testing.T) {
	if !useAVX {
		t.Skip("CPU has no AVX")
	}
	defer func() { useAVX = true }()
	// same runs fn on a fresh n-point field of the given halo width once on
	// each path and fails unless every value, halo included, agrees bitwise.
	same := func(what string, n grid.Dims, halo int, fn func(dst *grid.Field)) {
		t.Helper()
		want, got := grid.NewField(n, halo), grid.NewField(n, halo)
		useAVX = false
		fn(want)
		useAVX = true
		fn(got)
		w, g := want.Data(), got.Data()
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: element %d is %v on the AVX path, %v on the Go path", what, i, g[i], w[i])
			}
		}
	}
	rng := rand.New(rand.NewSource(27))
	// testOp's Courant number in x is 1, which zeroes two of the three qx;
	// these coefficients are all non-zero, so every product and sum counts.
	coeffs := TableI(grid.Velocity{X: 0.7, Y: -0.4, Z: 0.2}, 1.1)

	// Row lengths m = nx+2 (whole) and nx+2e+2 (extended): 3 … 46.
	for halo := 1; halo <= 3; halo++ {
		for nx := 1; nx <= 40; nx++ {
			n := grid.Dims{X: nx, Y: 3, Z: 2}
			src := randomFieldOn(n, halo, rng)
			op := NewOp(coeffs, src)
			for _, sub := range []grid.Subdomain{Whole(n), extended(n, halo-1)} {
				same(fmt.Sprintf("nx %d halo %d %v", nx, halo, sub), n, halo, func(dst *grid.Field) { op.Apply(src, dst, sub) })
			}
		}
	}

	// Random subdomains of the wide-halo region, starting at odd x.
	n := grid.Dims{X: 37, Y: 6, Z: 5}
	for trial := 0; trial < 200; trial++ {
		halo := 1 + rng.Intn(3)
		e := halo - 1
		src := randomFieldOn(n, halo, rng)
		op := NewOp(coeffs, src)
		// span draws a random [lo, lo+size) within [-e, extent+e).
		span := func(extent int) (lo, size int) {
			lo = -e + rng.Intn(extent+2*e)
			return lo, 1 + rng.Intn(extent+e-lo)
		}
		var sub grid.Subdomain
		for sub.Lo.X%2 == 0 {
			sub.Lo.X, sub.Size.X = span(n.X)
		}
		sub.Lo.Y, sub.Size.Y = span(n.Y)
		sub.Lo.Z, sub.Size.Z = span(n.Z)
		same(fmt.Sprintf("halo %d %v", halo, sub), n, halo, func(dst *grid.Field) { op.Apply(src, dst, sub) })
	}

	// Random ApplyRows partitions of a whole field.
	n = grid.Dims{X: 29, Y: 7, Z: 4}
	src := randomFieldOn(n, 1, rng)
	op := NewOp(coeffs, src)
	rows := Rows(Whole(n))
	for trial := 0; trial < 20; trial++ {
		cuts := []int{0}
		for lo := 0; lo < rows; {
			lo = min(lo+1+rng.Intn(2*n.Y), rows)
			cuts = append(cuts, lo)
		}
		same(fmt.Sprintf("partition %v", cuts), n, 1, func(dst *grid.Field) {
			for i := 1; i < len(cuts); i++ {
				op.ApplyRows(src, dst, Whole(n), cuts[i-1], cuts[i])
			}
		})
	}

	n = grid.Uniform(128)
	src = randomFieldOn(n, 1, rng)
	op = NewOp(coeffs, src)
	same("whole 128³", n, 1, func(dst *grid.Field) { op.Apply(src, dst, Whole(n)) })
}

// BenchmarkApplyGoVsAVX runs each of applyCases on the Go loop and then on
// the vector body, so that one invocation compares the two in one process.
func BenchmarkApplyGoVsAVX(b *testing.B) {
	if !useAVX {
		b.Skip("CPU has no AVX")
	}
	defer func() { useAVX = true }()
	for _, tc := range applyCases {
		for _, path := range []string{"go", "avx"} {
			b.Run(tc.name+"/"+path, func(b *testing.B) {
				useAVX = path == "avx"
				benchApply(b, tc.n, tc.sub(tc.n))
			})
		}
	}
}
