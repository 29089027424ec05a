package grid

import (
	"testing"
	"testing/quick"
)

func TestDecompPartitionProperty(t *testing.T) {
	// Every decomposition must tile the global grid: subdomains disjoint,
	// union covering, per-dimension size spread at most one point.
	prop := func(nx, ny, nz uint8, p uint8) bool {
		n := Dims{int(nx%20) + 4, int(ny%20) + 4, int(nz%20) + 4}
		// Keep the task count at or below the smallest extent so a
		// feasible aligned decomposition ({1,1,tasks} at worst) exists
		// even when the count is prime.
		m := min(n.X, min(n.Y, n.Z))
		tasks := int(p)%m + 1
		d := NewDecomp(n, tasks)
		if d.Tasks() != tasks {
			return false
		}
		seen := make([]int, n.Volume())
		total := 0
		for r := 0; r < tasks; r++ {
			s := d.Sub(r)
			if s.Empty() {
				return false // paper: no task gets an empty domain
			}
			hi := s.Hi()
			for k := s.Lo.Z; k < hi.Z; k++ {
				for j := s.Lo.Y; j < hi.Y; j++ {
					for i := s.Lo.X; i < hi.X; i++ {
						idx := i + n.X*(j+n.Y*k)
						seen[idx]++
						total++
					}
				}
			}
		}
		if total != n.Volume() {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestDecompSizeSpread(t *testing.T) {
	// "The largest subdomain is at most one grid point larger in each
	// dimension than the smallest."
	for _, tasks := range []int{1, 2, 3, 5, 7, 8, 12, 27, 30, 64, 100} {
		d := NewDecomp(Uniform(30), tasks)
		var minD, maxD Dims
		for r := 0; r < tasks; r++ {
			s := d.Sub(r).Size
			if r == 0 {
				minD, maxD = s, s
				continue
			}
			minD = Dims{min(minD.X, s.X), min(minD.Y, s.Y), min(minD.Z, s.Z)}
			maxD = Dims{max(maxD.X, s.X), max(maxD.Y, s.Y), max(maxD.Z, s.Z)}
		}
		if maxD.X-minD.X > 1 || maxD.Y-minD.Y > 1 || maxD.Z-minD.Z > 1 {
			t.Fatalf("tasks=%d: size spread %v..%v exceeds 1", tasks, minD, maxD)
		}
	}
}

func TestDecompCubicWhenPossible(t *testing.T) {
	// "If the number of tasks is the cube of an integer, and if that
	// integer is a divisor of 420, then every task has a cubic subdomain of
	// the same size."
	n := Uniform(420)
	for _, c := range []int{1, 2, 3, 4, 5, 6, 7} {
		tasks := c * c * c
		d := NewDecomp(n, tasks)
		want := Uniform(420 / c)
		for r := 0; r < tasks; r++ {
			if s := d.Sub(r).Size; s != want {
				t.Fatalf("tasks=%d rank=%d: size %v, want %v", tasks, r, s, want)
			}
		}
	}
}

func TestDecompXLargest(t *testing.T) {
	// "The subdomain size is largest in the x dimension and smallest in
	// the z dimension" when the split is not uniform.
	d := NewDecomp(Uniform(420), 12) // 12 = 1*3*4 or 2*2*3 etc.
	if d.P.X > d.P.Y || d.P.Y > d.P.Z {
		t.Fatalf("task grid %v not ascending", d.P)
	}
	s := d.Sub(0).Size
	if s.X < s.Y || s.Y < s.Z {
		t.Fatalf("subdomain %v not descending", s)
	}
}

func TestDecompRankCoordsRoundTrip(t *testing.T) {
	d := NewDecomp(Uniform(24), 24)
	for r := 0; r < d.Tasks(); r++ {
		if got := d.Rank(d.Coords(r)); got != r {
			t.Fatalf("Rank(Coords(%d)) = %d", r, got)
		}
	}
}

func TestDecompNeighborPeriodic(t *testing.T) {
	d := NewDecomp(Uniform(24), 24)
	for r := 0; r < d.Tasks(); r++ {
		for dim := 0; dim < 3; dim++ {
			plus := d.Neighbor(r, dim, +1)
			minus := d.Neighbor(plus, dim, -1)
			if minus != r {
				t.Fatalf("neighbor not inverse: rank %d dim %d", r, dim)
			}
		}
	}
}

func TestDecompSelfNeighbor(t *testing.T) {
	// "A task may be its own neighbor in decompositions with small or
	// prime numbers of tasks."
	d := NewDecomp(Uniform(12), 2) // P = {1,1,2}
	if d.P != (Dims{1, 1, 2}) {
		t.Fatalf("P = %v, want {1,1,2}", d.P)
	}
	if d.Neighbor(0, 0, +1) != 0 || d.Neighbor(0, 1, +1) != 0 {
		t.Fatal("rank 0 should be its own x and y neighbor")
	}
	if d.Neighbor(0, 2, +1) != 1 || d.Neighbor(0, 2, -1) != 1 {
		t.Fatal("rank 0's z neighbors should both be rank 1")
	}
}

func TestDecompPrimeTasks(t *testing.T) {
	d := NewDecomp(Uniform(420), 7)
	if d.P.Volume() != 7 {
		t.Fatalf("task volume %d", d.P.Volume())
	}
	if d.P != (Dims{1, 1, 7}) {
		t.Fatalf("prime task grid %v, want {1,1,7}", d.P)
	}
}

func TestDecompPanics(t *testing.T) {
	for _, bad := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewDecomp(%d) did not panic", bad)
				}
			}()
			NewDecomp(Uniform(4), bad)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("oversized task count did not panic")
			}
		}()
		NewDecomp(Uniform(2), 9)
	}()
}

func TestDecomposeErrors(t *testing.T) {
	for _, tc := range []struct {
		n      Dims
		ntasks int
	}{{Uniform(4), 0}, {Uniform(2), 9}, {Uniform(4), 5}, {Uniform(8), 2 * 11}} {
		if _, err := Decompose(tc.n, tc.ntasks); err == nil {
			t.Errorf("Decompose(%v, %d) succeeded", tc.n, tc.ntasks)
		}
	}
	if d, err := Decompose(Uniform(8), 7); err != nil || d != NewDecomp(Uniform(8), 7) {
		t.Fatalf("Decompose(8³, 7) = %v, %v", d, err)
	}
}

func TestFactorTriples(t *testing.T) {
	got := factorTriples(12)
	want := [][3]int{{1, 1, 12}, {1, 2, 6}, {1, 3, 4}, {2, 2, 3}}
	if len(got) != len(want) {
		t.Fatalf("triples of 12: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("triples of 12: %v, want %v", got, want)
		}
	}
}

func TestSplit1(t *testing.T) {
	// 10 into 3: 4,3,3 with lows 0,4,7.
	los := []int{0, 4, 7}
	sizes := []int{4, 3, 3}
	for i := 0; i < 3; i++ {
		lo, n := split1(10, 3, i)
		if lo != los[i] || n != sizes[i] {
			t.Fatalf("split1(10,3,%d) = (%d,%d), want (%d,%d)", i, lo, n, los[i], sizes[i])
		}
	}
}

func TestBoxSplit(t *testing.T) {
	n := Dims{10, 8, 9}
	b, err := NewBoxSplit(n, 2)
	if err != nil {
		t.Fatal(err)
	}
	in := b.Inner()
	if in.Lo != (Dims{2, 2, 2}) || in.Size != (Dims{6, 4, 5}) {
		t.Fatalf("Inner = %v", in)
	}
}

func TestBoxSplitWallsTileShell(t *testing.T) {
	n := Dims{9, 7, 8}
	for tk := 0; tk <= 3; tk++ {
		b, err := NewBoxSplit(n, tk)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[[3]int]bool)
		totalVol := 0
		for _, w := range b.Walls() {
			hi := w.Hi()
			for k := w.Lo.Z; k < hi.Z; k++ {
				for j := w.Lo.Y; j < hi.Y; j++ {
					for i := w.Lo.X; i < hi.X; i++ {
						key := [3]int{i, j, k}
						if seen[key] {
							t.Fatalf("t=%d: walls overlap at %v", tk, key)
						}
						seen[key] = true
						totalVol++
						if b.Inner().Contains(i, j, k) {
							t.Fatalf("t=%d: wall point %v inside GPU block", tk, key)
						}
					}
				}
			}
		}
		if shell := n.Volume() - b.Inner().Volume(); totalVol != shell {
			t.Fatalf("t=%d: walls cover %d, shell is %d", tk, totalVol, shell)
		}
	}
}

func TestBoxSplitWallsByDim(t *testing.T) {
	b, err := NewBoxSplit(Dims{10, 10, 10}, 2)
	if err != nil {
		t.Fatal(err)
	}
	for dim := 0; dim < 3; dim++ {
		for _, w := range b.WallsByDim(dim) {
			if w.Size.Axis(dim) != 2 {
				t.Fatalf("dim %d wall thickness %d, want 2", dim, w.Size.Axis(dim))
			}
		}
	}
}

func TestBoxSplitErrors(t *testing.T) {
	if _, err := NewBoxSplit(Dims{6, 6, 6}, -1); err == nil {
		t.Fatal("negative thickness accepted")
	}
	if _, err := NewBoxSplit(Dims{6, 6, 6}, 3); err == nil {
		t.Fatal("thickness consuming whole domain accepted")
	}
	if _, err := NewBoxSplit(Dims{6, 6, 6}, 2); err != nil {
		t.Fatalf("valid thickness rejected: %v", err)
	}
}
