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

// checkNewCut checks newCut for a schedule's part count, with y and z each
// a message or a copy — x lands first either way — on every rank shape in
// [1..6]³ and on the benchmark's 16³ and 16×16×8 ranks: each part reads
// only the halos landed before its phase, the slabs come after all three, a
// phase lands early only if it is x, a copy right after x, or nothing is
// left to hide it behind, and no region is narrower than the domain, so no
// row is one point wide unless the domain is.
func checkNewCut(t *testing.T, parts int) {
	t.Helper()
	for _, n := range cutShapes(grid.Uniform(16), grid.Dims{X: 16, Y: 16, Z: 8}) {
		for mask := 0; mask < 4; mask++ {
			ex := &exchanger{self: [3]bool{true, mask&1 != 0, mask&2 != 0}}
			c := newCut(n, ex, parts)
			var stages []stage
			for i, part := range c.parts {
				stages = append(stages, stage{c.landed + i, []grid.Subdomain{part}})
			}
			stages = append(stages, stage{3, c.after})
			if oneRows := checkCut(t, n, stages...); oneRows != 0 && n.X > 1 {
				t.Errorf("%v, self %v, %d parts: %d one-point rows, want 0", n, ex.self, parts, oneRows)
			}
			for _, st := range stages {
				for _, s := range st.region {
					if !s.Empty() && s.Size.X != n.X {
						t.Errorf("%v, self %v, %d parts: region %v is %d points wide, want %d", n, ex.self, parts, s, s.Size.X, n.X)
					}
				}
			}
			landed := 1 // x, then each copy right after it
			for landed < 3 && ex.self[landed] {
				landed++
			}
			if landed < 2 && n.Y <= 2 || landed < 3 && n.Z <= 2 {
				landed = 3 // no interior to hide a phase behind
			}
			if c.landed != landed {
				t.Errorf("%v, self %v, %d parts: %d phases land before any compute, want %d", n, ex.self, parts, c.landed, landed)
			}
			if want := min(parts, 3-c.landed); len(c.parts) != want {
				t.Errorf("%v, self %v, %d parts: %d parts after %d landed phases, want %d", n, ex.self, parts, len(c.parts), c.landed, want)
			}
			// §IV-D's region computes its one part: it must have rows.
			if parts == 1 && len(c.parts) == 1 && c.parts[0].Empty() {
				t.Errorf("%v, self %v: the region's part %v is empty", n, ex.self, c.parts[0])
			}
		}
	}
}

// TestNonblockingCutTilesAndWaitsForTheExchange checks §IV-C's cut: three
// parts, one per phase still in flight.
func TestNonblockingCutTilesAndWaitsForTheExchange(t *testing.T) {
	checkNewCut(t, 3)
}

// TestThreadedCutTilesAndWaitsForTheExchange checks §IV-D's cut: one
// region computed while the master runs the later phases.
func TestThreadedCutTilesAndWaitsForTheExchange(t *testing.T) {
	checkNewCut(t, 1)
}
