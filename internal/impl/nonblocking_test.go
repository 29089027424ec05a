package impl

import (
	"testing"

	"repro/internal/grid"
)

// TestNonblockingCutTilesAndWaitsForTheExchange checks §IV-C's cut on every
// rank shape in [1..6]³ and on the benchmark's 16×16×8 rank. The four
// regions cover the local domain exactly once: with Threads > 1 a point in
// two regions, or twice in one, would be written by two threads. And each
// point of the region computed during phase d reads only what has landed by
// then: owned points; the x halo over the owned y–z range from the y phase
// on; the y halo, widened in x by the x halo, in the z phase.
func TestNonblockingCutTilesAndWaitsForTheExchange(t *testing.T) {
	var shapes []grid.Dims
	for x := 1; x <= 6; x++ {
		for y := 1; y <= 6; y++ {
			for z := 1; z <= 6; z++ {
				shapes = append(shapes, grid.Dims{X: x, Y: y, Z: z})
			}
		}
	}
	shapes = append(shapes, grid.Dims{X: 16, Y: 16, Z: 8})

	for _, n := range shapes {
		r := &rank{sub: grid.Subdomain{Size: n}}
		prepareNonblocking(r)
		cut := r.geom.(*nonblockingCut)
		regions := [4][]grid.Subdomain{cut.during[0], cut.during[1], cut.during[2], cut.after}

		// landed reports whether the value at (i, j, k) is valid while the
		// exchange of dimension d is in flight; d == 3 is after all three.
		landed := func(d, i, j, k int) bool {
			in := func(v, hi int) bool { return v >= 0 && v < hi }
			switch {
			case !in(k, n.Z):
				return d >= 3
			case !in(j, n.Y):
				return d >= 2
			case !in(i, n.X):
				return d >= 1
			}
			return true
		}
		seen := make(map[grid.Dims]int, n.Volume())
		oneRows := 0
		for d, region := range regions {
			for _, s := range region {
				if s.Empty() {
					continue
				}
				if s.Size.X == 1 {
					oneRows += s.Size.Y * s.Size.Z
				}
				h := s.Hi()
				for k := s.Lo.Z; k < h.Z; k++ {
					for j := s.Lo.Y; j < h.Y; j++ {
						for i := s.Lo.X; i < h.X; i++ {
							p := grid.Dims{X: i, Y: j, Z: k}
							if !(grid.Subdomain{Size: n}).Contains(i, j, k) {
								t.Fatalf("%v: region %d computes %v outside the domain", n, d, p)
							}
							seen[p]++
							for dk := -1; dk <= 1; dk++ {
								for dj := -1; dj <= 1; dj++ {
									for di := -1; di <= 1; di++ {
										if !landed(d, i+di, j+dj, k+dk) {
											t.Fatalf("%v: region %d computes %v, which reads (%d,%d,%d) before it lands",
												n, d, p, i+di, j+dj, k+dk)
										}
									}
								}
							}
						}
					}
				}
			}
		}
		if len(seen) != n.Volume() {
			t.Fatalf("%v: the cut covers %d of %d points", n, len(seen), n.Volume())
		}
		for p, c := range seen {
			if c != 1 {
				t.Fatalf("%v: point %v is computed %d times", n, p, c)
			}
		}
		// The first third's two walls, 14 rows by 2 planes each; cutting
		// every ±x wall into one-point rows gave 2 × 14 × 6 = 168.
		if n == (grid.Dims{X: 16, Y: 16, Z: 8}) && oneRows != 56 {
			t.Errorf("%v: the cut has %d one-point rows, want 56", n, oneRows)
		}
	}
}
