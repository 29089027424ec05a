package impl

import (
	"testing"

	"repro/internal/grid"
)

// stage is one region of an overlap schedule's cut and the number of
// exchange phases, x then y then z, that have landed when it is computed.
type stage struct {
	landed int
	region []grid.Subdomain
}

// cutShapes is every rank shape in [1..6]³ and the extra shapes given.
func cutShapes(extra ...grid.Dims) []grid.Dims {
	var shapes []grid.Dims
	for x := 1; x <= 6; x++ {
		for y := 1; y <= 6; y++ {
			for z := 1; z <= 6; z++ {
				shapes = append(shapes, grid.Dims{X: x, Y: y, Z: z})
			}
		}
	}
	return append(shapes, extra...)
}

// checkCut fails t unless the stages of a cut cover the n-point local
// domain exactly once — with Threads > 1 a point in two regions, or twice
// in one, would be written by two threads — and each point of a stage reads
// only what has landed by then: owned points; the x halo over the owned y–z
// range once x has landed; the y halo, widened in x by the x halo, once y
// has; the z halo once all three have. It returns the number of one-point
// rows in the cut.
func checkCut(t *testing.T, n grid.Dims, stages ...stage) (oneRows int) {
	t.Helper()
	// landed reports whether the value at (i, j, k) is valid once d phases
	// have landed.
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
	for si, st := range stages {
		for _, s := range st.region {
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
							t.Fatalf("%v: stage %d computes %v outside the domain", n, si, p)
						}
						seen[p]++
						for dk := -1; dk <= 1; dk++ {
							for dj := -1; dj <= 1; dj++ {
								for di := -1; di <= 1; di++ {
									if !landed(st.landed, i+di, j+dj, k+dk) {
										t.Fatalf("%v: stage %d computes %v, which reads (%d,%d,%d) before it lands",
											n, si, p, i+di, j+dj, k+dk)
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
	return oneRows
}

// TestNonblockingCutTilesAndWaitsForTheExchange checks §IV-C's cut on every
// rank shape in [1..6]³ and on the benchmark's 16×16×8 rank: the region
// computed during phase d reads only the halos of the d phases before it,
// and the after-region reads all three.
func TestNonblockingCutTilesAndWaitsForTheExchange(t *testing.T) {
	for _, n := range cutShapes(grid.Dims{X: 16, Y: 16, Z: 8}) {
		r := &rank{sub: grid.Subdomain{Size: n}}
		prepareNonblocking(r)
		cut := r.geom.(*nonblockingCut)
		oneRows := checkCut(t, n, stage{0, cut.during[0]}, stage{1, cut.during[1]}, stage{2, cut.during[2]}, stage{3, cut.after})
		// The first third's two walls, 14 rows by 2 planes each; cutting
		// every ±x wall into one-point rows gave 2 × 14 × 6 = 168.
		if n == (grid.Dims{X: 16, Y: 16, Z: 8}) && oneRows != 56 {
			t.Errorf("%v: the cut has %d one-point rows, want 56", n, oneRows)
		}
	}
}

// TestThreadedCutTilesAndWaitsForTheExchange checks §IV-D's cut on every
// rank shape in [1..6]³, on the benchmark's 16³ one-task rank and on its
// 16×16×8 two-task rank: the region's rows read the x halo and no other,
// the slabs come after all three phases, and no region is narrower than the
// domain, so no row is one point wide unless the domain is.
func TestThreadedCutTilesAndWaitsForTheExchange(t *testing.T) {
	for _, n := range cutShapes(grid.Uniform(16), grid.Dims{X: 16, Y: 16, Z: 8}) {
		r := &rank{sub: grid.Subdomain{Size: n}}
		prepareThreaded(r)
		cut := r.geom.(*threadedCut)
		checkCut(t, n, stage{1, []grid.Subdomain{cut.rows}}, stage{3, cut.slabs})
		for _, s := range append([]grid.Subdomain{cut.rows}, cut.slabs...) {
			if !s.Empty() && s.Size.X != n.X {
				t.Errorf("%v: region %v is %d points wide, want %d", n, s, s.Size.X, n.X)
			}
		}
	}
}
