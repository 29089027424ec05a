package stencil

import (
	"testing"

	"repro/internal/grid"
)

// applyCases are the shapes the schedules cut: whole cubes in and out of
// cache, the short rows of a 16³ task, and the one-point rows of a ±x
// boundary wall.
var applyCases = []struct {
	name string
	n    grid.Dims
	sub  func(grid.Dims) grid.Subdomain
}{
	{"whole128", grid.Uniform(128), Whole},
	{"whole16", grid.Uniform(16), Whole},
	{"interior16x16x8", grid.Dims{X: 16, Y: 16, Z: 8}, Interior},
	{"xwall128", grid.Uniform(128), func(n grid.Dims) grid.Subdomain { return BoundarySlabs(n)[4] }},
	{"xwall16", grid.Uniform(16), func(n grid.Dims) grid.Subdomain { return BoundarySlabs(n)[4] }},
}

// BenchmarkApply times the row kernel on each of applyCases.
func BenchmarkApply(b *testing.B) {
	for _, tc := range applyCases {
		b.Run(tc.name, func(b *testing.B) { benchApply(b, tc.n, tc.sub(tc.n)) })
	}
}

// benchApply times Apply over sub of an n-point field and reports ns/pt.
func benchApply(b *testing.B, n grid.Dims, sub grid.Subdomain) {
	src := randomField(n)
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := testOp(src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(src, dst, sub)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sub.Volume()), "ns/pt")
}

// BenchmarkApplyRow128 times one 128-point interior row of a 128³ field, the
// row kernel's unit of work, over and over: the stencil gate of ci.sh.
func BenchmarkApplyRow128(b *testing.B) {
	n := grid.Uniform(128)
	src := randomField(n)
	dst := grid.NewField(n, 1)
	op := testOp(src)
	row := grid.Subdomain{Lo: grid.Dims{X: 0, Y: 64, Z: 64}, Size: grid.Dims{X: 128, Y: 1, Z: 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op.Apply(src, dst, row)
	}
}
