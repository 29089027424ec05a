package stencil

import (
	"testing"

	"repro/internal/grid"
)

// BenchmarkApply times the row kernel on the shapes the schedules cut: whole
// cubes in and out of cache, the short rows of a 16³ task, and the
// one-point rows of a ±x boundary wall.
func BenchmarkApply(b *testing.B) {
	cases := []struct {
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
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			src := randomField(tc.n)
			src.CopyPeriodicHalos()
			dst := grid.NewField(tc.n, 1)
			op := testOp(src)
			sub := tc.sub(tc.n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op.Apply(src, dst, sub)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(sub.Volume()), "ns/pt")
		})
	}
}
