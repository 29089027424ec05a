package stencil

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

func testVelocity() grid.Velocity { return grid.Velocity{X: 1, Y: 0.5, Z: 0.25} }

func testOp(f *grid.Field) *Op {
	c := testVelocity()
	return NewOp(TableI(c, MaxStableNu(c)), f)
}

// randomField is randomFieldOn with halo width 1 and a fixed seed.
func randomField(n grid.Dims) *grid.Field {
	return randomFieldOn(n, 1, rand.New(rand.NewSource(12345)))
}

// randomFieldOn draws every point of the field, halo included, from rng,
// scaled to [-3, 3) so that tolerances stated relative to max|s| are not
// tolerances relative to 1.
func randomFieldOn(n grid.Dims, halo int, rng *rand.Rand) *grid.Field {
	f := grid.NewField(n, halo)
	d := f.Data()
	for i := range d {
		d[i] = 6*rng.Float64() - 3
	}
	return f
}

func maxAbs(f *grid.Field) float64 {
	var m float64
	for _, v := range f.Data() {
		m = math.Max(m, math.Abs(v))
	}
	return m
}

// extended is the interior grown by e points on every side: the region a
// wide-halo burst computes on a field of halo width e+1.
func extended(n grid.Dims, e int) grid.Subdomain {
	return grid.Subdomain{
		Lo:   grid.Dims{X: -e, Y: -e, Z: -e},
		Size: grid.Dims{X: n.X + 2*e, Y: n.Y + 2*e, Z: n.Z + 2*e},
	}
}

// forEach calls fn for every point of sub.
func forEach(sub grid.Subdomain, fn func(i, j, k int)) {
	hi := sub.Hi()
	for k := sub.Lo.Z; k < hi.Z; k++ {
		for j := sub.Lo.Y; j < hi.Y; j++ {
			for i := sub.Lo.X; i < hi.X; i++ {
				fn(i, j, k)
			}
		}
	}
}

// TestApplyMatchesPoint holds the factored row kernel to the literal
// 27-term sum of Eq. 2 within 4 ulp of the largest input, on every way the
// schedules cut a task: whole, interior, wide-halo regions reaching into the
// halo, and box walls whose rows are one (T=1, the boundary slabs) and two
// (T=2) points long.
func TestApplyMatchesPoint(t *testing.T) {
	rng := rand.New(rand.NewSource(20260929))
	for _, n := range []grid.Dims{{X: 6, Y: 5, Z: 4}, {X: 9, Y: 4, Z: 7}, {X: 1, Y: 3, Z: 2}, {X: 2, Y: 8, Z: 5}} {
		for halo := 1; halo <= 3; halo++ {
			src := randomFieldOn(n, halo, rng)
			dst := grid.NewField(n, halo)
			op := testOp(src)
			tol := 4 * 0x1p-52 * maxAbs(src)
			subs := []grid.Subdomain{Whole(n), Interior(n), extended(n, halo-1)}
			subs = append(subs, BoundarySlabs(n)...)
			subs = append(subs, grid.BoxSplit{Local: n, T: 2}.Walls()...)
			for _, sub := range subs {
				op.Apply(src, dst, sub)
				forEach(sub, func(i, j, k int) {
					want := op.Point(src, i, j, k)
					if got := dst.At(i, j, k); !(math.Abs(got-want) <= tol) {
						t.Fatalf("%v halo %d %v: Apply(%d,%d,%d) = %v, want %v ± %g", n, halo, sub, i, j, k, got, want, tol)
					}
				})
			}
		}
	}
}

// The two tests below pin what lets the overlap schedules reproduce the
// single-task field exactly: a point's value does not depend on the
// subdomain or row range it was computed in.

func TestApplyCutsMatchWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []grid.Dims{{X: 7, Y: 6, Z: 5}, {X: 3, Y: 9, Z: 8}, {X: 12, Y: 3, Z: 4}} {
		src := randomFieldOn(n, 1, rng)
		op := testOp(src)
		want := grid.NewField(n, 1)
		op.Apply(src, want, Whole(n))
		got := grid.NewField(n, 1)
		for _, sub := range InteriorThirds(n) {
			op.Apply(src, got, sub)
		}
		for _, sub := range BoundarySlabs(n) {
			op.Apply(src, got, sub)
		}
		if nm := grid.DiffNorms(got, want); nm.LInf != 0 {
			t.Fatalf("%v: thirds+slabs differ from whole: %+v", n, nm)
		}
	}
}

func TestApplyRowsMatchesApply(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, n := range []grid.Dims{{X: 7, Y: 6, Z: 5}, {X: 1, Y: 9, Z: 8}} {
		src := randomFieldOn(n, 1, rng)
		op := testOp(src)
		want := grid.NewField(n, 1)
		op.Apply(src, want, Whole(n))
		rows := Rows(Whole(n))
		for trial := 0; trial < 20; trial++ {
			got := grid.NewField(n, 1)
			for lo := 0; lo < rows; {
				hi := min(lo+1+rng.Intn(2*n.Y), rows)
				op.ApplyRows(src, got, Whole(n), lo, hi)
				lo = hi
			}
			if nm := grid.DiffNorms(got, want); nm.LInf != 0 {
				t.Fatalf("%v: ApplyRows over a random partition differs from Apply: %+v", n, nm)
			}
		}
	}
}

// TestApplySubdomainOnly checks that nothing outside sub is written, halo
// and the points just left of each row included. The 13-point rows starting
// at odd x run the vector body where the CPU has one, so its 32-byte stores
// are held to [x₀, x₀+nx) too.
func TestApplySubdomainOnly(t *testing.T) {
	n := grid.Dims{X: 20, Y: 6, Z: 6}
	src := randomField(n)
	op := testOp(src)
	const sentinel = -77.0
	for _, sub := range []grid.Subdomain{
		{Lo: grid.Dims{X: 1, Y: 2, Z: 3}, Size: grid.Dims{X: 3, Y: 2, Z: 2}},
		{Lo: grid.Dims{X: 0, Y: 0, Z: 0}, Size: grid.Dims{X: 1, Y: 6, Z: 6}},
		{Lo: grid.Dims{X: 19, Y: 1, Z: 0}, Size: grid.Dims{X: 1, Y: 4, Z: 6}},
		{Lo: grid.Dims{X: 5, Y: 1, Z: 2}, Size: grid.Dims{X: 13, Y: 4, Z: 3}},
	} {
		dst := grid.NewField(n, 1)
		d := dst.Data()
		for i := range d {
			d[i] = sentinel
		}
		op.Apply(src, dst, sub)
		forEach(extended(n, 1), func(i, j, k int) {
			got := dst.At(i, j, k)
			if sub.Contains(i, j, k) == (got == sentinel) {
				t.Fatalf("%v: (%d,%d,%d) = %v", sub, i, j, k, got)
			}
		})
	}
}

func TestApplyNoAllocs(t *testing.T) {
	n := grid.Dims{X: 8, Y: 6, Z: 5}
	src := randomField(n)
	dst := grid.NewField(n, 1)
	op := testOp(src)
	slabs := BoundarySlabs(n)
	if a := testing.AllocsPerRun(10, func() {
		op.Apply(src, dst, Interior(n))
		for _, sub := range slabs {
			op.Apply(src, dst, sub)
		}
	}); a != 0 {
		t.Fatalf("Apply allocates %v times per sweep", a)
	}
}

func TestConstantFieldFixedPoint(t *testing.T) {
	n := grid.Uniform(6)
	src := grid.NewField(n, 1)
	src.Fill(func(i, j, k int) float64 { return 3.25 })
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := testOp(src)
	op.Apply(src, dst, Whole(n))
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				if d := math.Abs(dst.At(i, j, k) - 3.25); d > 1e-13 {
					t.Fatalf("constant field moved by %v at (%d,%d,%d)", d, i, j, k)
				}
			}
		}
	}
}

func TestPureShift(t *testing.T) {
	// With c = (1,1,1) and ν = 1 every Courant number is 1, so one step is
	// an exact one-point shift in each dimension.
	n := grid.Uniform(8)
	c := grid.Velocity{X: 1, Y: 1, Z: 1}
	op := func(f *grid.Field) *Op { return NewOp(TableI(c, 1), f) }
	src := randomField(n)
	ref := src.Clone()
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op(src).Apply(src, dst, Whole(n))
	w := func(i, m int) int { return ((i % m) + m) % m }
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				want := ref.At(w(i-1, n.X), w(j-1, n.Y), w(k-1, n.Z))
				if d := math.Abs(dst.At(i, j, k) - want); d > 1e-14 {
					t.Fatalf("shift error %v at (%d,%d,%d)", d, i, j, k)
				}
			}
		}
	}
}

func TestMassConservation(t *testing.T) {
	n := grid.Uniform(10)
	src := grid.NewField(n, 1)
	grid.FillGaussian(src, grid.DefaultGaussian(n))
	dst := grid.NewField(n, 1)
	op := testOp(src)
	mass0 := src.InteriorSum()
	for s := 0; s < 20; s++ {
		src.CopyPeriodicHalos()
		op.Apply(src, dst, Whole(n))
		src.Swap(dst)
	}
	if d := math.Abs(src.InteriorSum() - mass0); d > 1e-10 {
		t.Fatalf("mass drifted by %v over 20 steps", d)
	}
}

func TestSecondOrderConvergence(t *testing.T) {
	// Advect a Gaussian over a fixed physical time on grids of n and 2n
	// points; the paper's method is O(Δ²) for fixed simulated time, so the
	// L2 error should fall by about 4x when the resolution doubles.
	c := grid.Velocity{X: 0.7, Y: 0.4, Z: 0.2}
	errAt := func(npts, steps int) float64 {
		n := grid.Uniform(npts)
		nu := MaxStableNu(c)
		g := grid.Gaussian{
			Center: [3]float64{float64(npts) / 2, float64(npts) / 2, float64(npts) / 2},
			Sigma:  float64(npts) / 8,
		}
		f := grid.NewField(n, 1)
		grid.FillGaussian(f, g)
		tmp := grid.NewField(n, 1)
		op := NewOp(TableI(c, nu), f)
		for s := 0; s < steps; s++ {
			f.CopyPeriodicHalos()
			op.Apply(f, tmp, Whole(n))
			f.Swap(tmp)
		}
		tFinal := nu * float64(steps)
		nm := grid.NormsAgainst(f, func(i, j, k int) float64 {
			return g.Analytic(n, c, tFinal, i, j, k)
		})
		return nm.L2
	}
	// Fixed simulated time: steps scale with resolution (δ halves, Δ = νδ
	// halves in grid units when ν is fixed... here ν is dimensionless so
	// doubling points and steps holds physical time in grid fractions).
	e1 := errAt(16, 8)
	e2 := errAt(32, 16)
	ratio := e1 / e2
	if ratio < 3.0 {
		t.Fatalf("convergence ratio %.2f < 3.0 (e1=%g e2=%g); not second order", ratio, e1, e2)
	}
}

func TestInteriorAndBoundaryTile(t *testing.T) {
	n := grid.Dims{X: 7, Y: 6, Z: 5}
	in := Interior(n)
	slabs := BoundarySlabs(n)
	seen := make(map[[3]int]int)
	mark := func(s grid.Subdomain) {
		forEach(s, func(i, j, k int) { seen[[3]int{i, j, k}]++ })
	}
	mark(in)
	for _, s := range slabs {
		mark(s)
	}
	if len(seen) != n.Volume() {
		t.Fatalf("covered %d of %d points", len(seen), n.Volume())
	}
	for p, c := range seen {
		if c != 1 {
			t.Fatalf("point %v covered %d times", p, c)
		}
	}
}

// TestInteriorOfThinDomainIsEmpty: a domain thinner than three points in
// two dimensions has no interior, and no volume to count either — two
// negative extents must not multiply to a positive point count.
func TestInteriorOfThinDomainIsEmpty(t *testing.T) {
	for _, n := range []grid.Dims{{X: 3, Y: 1, Z: 1}, {X: 1, Y: 5, Z: 1}, {X: 1, Y: 1, Z: 1}, {X: 2, Y: 1, Z: 6}} {
		in := Interior(n)
		if !in.Empty() || in.Volume() != 0 {
			t.Errorf("Interior(%v) = %v with volume %d, want empty with volume 0", n, in, in.Volume())
		}
	}
}

func TestInteriorThirdsTileInterior(t *testing.T) {
	for _, nz := range []int{5, 6, 7, 8} {
		n := grid.Dims{X: 6, Y: 6, Z: nz}
		thirds := InteriorThirds(n)
		in := Interior(n)
		vol := 0
		prevHi := in.Lo.Z
		for _, s := range thirds {
			if s.Lo.Z != prevHi {
				t.Fatalf("nz=%d: thirds not contiguous", nz)
			}
			prevHi = s.Hi().Z
			vol += s.Volume()
			if s.Lo.X != in.Lo.X || s.Size.X != in.Size.X || s.Lo.Y != in.Lo.Y || s.Size.Y != in.Size.Y {
				t.Fatalf("nz=%d: third has wrong xy extent", nz)
			}
		}
		if prevHi != in.Hi().Z {
			t.Fatalf("nz=%d: thirds end at %d, want %d", nz, prevHi, in.Hi().Z)
		}
		if vol != in.Volume() {
			t.Fatalf("nz=%d: thirds volume %d, want %d", nz, vol, in.Volume())
		}
	}
}

func TestApplyEmptySubdomainNoop(t *testing.T) {
	n := grid.Uniform(4)
	src := randomField(n)
	src.CopyPeriodicHalos()
	dst := grid.NewField(n, 1)
	op := testOp(src)
	op.Apply(src, dst, grid.Subdomain{Size: grid.Dims{X: 0, Y: 4, Z: 4}})
	if dst.InteriorSum() != 0 {
		t.Fatal("empty subdomain wrote data")
	}
}

func TestFlopsPerPoint(t *testing.T) {
	// 27 multiplications and 26 additions (paper §II).
	if FlopsPerPoint != 27+26 {
		t.Fatalf("FlopsPerPoint = %d", FlopsPerPoint)
	}
}
