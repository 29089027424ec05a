package grid

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFieldIndexRoundTrip(t *testing.T) {
	f := NewField(Dims{4, 5, 6}, 2)
	want := map[int]bool{}
	for k := -2; k < 8; k++ {
		for j := -2; j < 7; j++ {
			for i := -2; i < 6; i++ {
				idx := f.Idx(i, j, k)
				if idx < 0 || idx >= len(f.Data()) {
					t.Fatalf("Idx(%d,%d,%d) = %d out of range [0,%d)", i, j, k, idx, len(f.Data()))
				}
				if want[idx] {
					t.Fatalf("Idx(%d,%d,%d) = %d collides", i, j, k, idx)
				}
				want[idx] = true
			}
		}
	}
	if len(want) != len(f.Data()) {
		t.Fatalf("covered %d of %d slots", len(want), len(f.Data()))
	}
}

func TestFieldSetAt(t *testing.T) {
	f := NewField(Dims{3, 3, 3}, 1)
	f.Set(1, 2, 0, 42.5)
	if got := f.At(1, 2, 0); got != 42.5 {
		t.Fatalf("At = %v, want 42.5", got)
	}
	f.Set(-1, 3, 2, 7) // halo point
	if got := f.At(-1, 3, 2); got != 7 {
		t.Fatalf("halo At = %v, want 7", got)
	}
}

func TestFieldStrides(t *testing.T) {
	f := NewField(Dims{4, 5, 6}, 1)
	sx, sy, sz := f.Strides()
	if sx != 1 {
		t.Fatalf("sx = %d, want 1", sx)
	}
	if d := f.Idx(1, 0, 0) - f.Idx(0, 0, 0); d != sx {
		t.Fatalf("x stride = %d, want %d", d, sx)
	}
	if d := f.Idx(0, 1, 0) - f.Idx(0, 0, 0); d != sy {
		t.Fatalf("y stride = %d, want %d", d, sy)
	}
	if d := f.Idx(0, 0, 1) - f.Idx(0, 0, 0); d != sz {
		t.Fatalf("z stride = %d, want %d", d, sz)
	}
}

func TestFieldFillAndSum(t *testing.T) {
	f := NewField(Dims{3, 4, 5}, 1)
	f.Fill(func(i, j, k int) float64 { return 1 })
	if got, want := f.InteriorSum(), float64(3*4*5); got != want {
		t.Fatalf("InteriorSum = %v, want %v", got, want)
	}
	// Halos must stay zero.
	if f.At(-1, 0, 0) != 0 || f.At(3, 0, 0) != 0 {
		t.Fatal("Fill wrote into halo")
	}
}

func TestFieldCloneIndependent(t *testing.T) {
	f := NewField(Dims{2, 2, 2}, 1)
	f.Set(0, 0, 0, 1)
	g := f.Clone()
	g.Set(0, 0, 0, 2)
	if f.At(0, 0, 0) != 1 {
		t.Fatal("Clone shares storage")
	}
}

func TestFieldSwap(t *testing.T) {
	f := NewField(Dims{2, 2, 2}, 1)
	g := NewField(Dims{2, 2, 2}, 1)
	f.Set(0, 0, 0, 1)
	g.Set(0, 0, 0, 2)
	f.Swap(g)
	if f.At(0, 0, 0) != 2 || g.At(0, 0, 0) != 1 {
		t.Fatal("Swap did not exchange storage")
	}
}

func TestFieldCopyInteriorFrom(t *testing.T) {
	src := NewField(Dims{3, 3, 3}, 2)
	dst := NewField(Dims{3, 3, 3}, 1)
	src.Fill(func(i, j, k int) float64 { return float64(i + 10*j + 100*k) })
	dst.CopyInteriorFrom(src)
	for k := 0; k < 3; k++ {
		for j := 0; j < 3; j++ {
			for i := 0; i < 3; i++ {
				if dst.At(i, j, k) != src.At(i, j, k) {
					t.Fatalf("mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

// wrap maps any index into [0, n).
func wrap(i, n int) int { return ((i % n) + n) % n }

func TestCopyPeriodicHalos(t *testing.T) {
	n := Dims{4, 5, 3}
	f := NewField(n, 1)
	f.Fill(func(i, j, k int) float64 { return float64(1 + i + 10*j + 100*k) })
	f.CopyPeriodicHalos()
	for k := -1; k <= n.Z; k++ {
		for j := -1; j <= n.Y; j++ {
			for i := -1; i <= n.X; i++ {
				want := float64(1 + wrap(i, n.X) + 10*wrap(j, n.Y) + 100*wrap(k, n.Z))
				if got := f.At(i, j, k); got != want {
					t.Fatalf("halo (%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}

func TestCopyPeriodicHalosWidth2(t *testing.T) {
	n := Dims{5, 4, 6}
	f := NewField(n, 2)
	f.Fill(func(i, j, k int) float64 { return float64(1 + i + 10*j + 100*k) })
	f.CopyPeriodicHalos()
	for k := -2; k < n.Z+2; k++ {
		for j := -2; j < n.Y+2; j++ {
			for i := -2; i < n.X+2; i++ {
				want := float64(1 + wrap(i, n.X) + 10*wrap(j, n.Y) + 100*wrap(k, n.Z))
				if got := f.At(i, j, k); got != want {
					t.Fatalf("halo (%d,%d,%d) = %v, want %v", i, j, k, got, want)
				}
			}
		}
	}
}

// TestPackUnpackFaceSelfExchange emulates the full three-phase exchange of a
// field with itself (the one-task periodic case) through buffers and checks
// it produces exactly what CopyPeriodicHalos produces, corners included.
func TestPackUnpackFaceSelfExchange(t *testing.T) {
	n := Dims{4, 3, 5}
	mk := func() *Field {
		f := NewField(n, 1)
		f.Fill(func(i, j, k int) float64 { return float64(i + 7*j + 31*k) })
		return f
	}
	want := mk()
	want.CopyPeriodicHalos()

	got := mk()
	for dim := 0; dim < 3; dim++ {
		cnt := got.FaceCount(dim)
		minus := make([]float64, cnt)
		plus := make([]float64, cnt)
		// Sending to the -dim neighbor means the neighbor receives on its
		// +dim side; with one periodic task, both neighbors are the field
		// itself.
		if p := got.PackFace(dim, -1, 1, minus); p != cnt {
			t.Fatalf("dim %d: packed %d, want %d", dim, p, cnt)
		}
		if p := got.PackFace(dim, +1, 1, plus); p != cnt {
			t.Fatalf("dim %d: packed %d, want %d", dim, p, cnt)
		}
		got.UnpackFace(dim, +1, 1, minus) // low boundary appears past high edge
		got.UnpackFace(dim, -1, 1, plus)  // high boundary appears before low edge
	}
	for k := -1; k <= n.Z; k++ {
		for j := -1; j <= n.Y; j++ {
			for i := -1; i <= n.X; i++ {
				if got.At(i, j, k) != want.At(i, j, k) {
					t.Fatalf("(%d,%d,%d): got %v, want %v", i, j, k, got.At(i, j, k), want.At(i, j, k))
				}
			}
		}
	}
}

func TestFaceCount(t *testing.T) {
	f := NewField(Dims{4, 5, 6}, 1)
	if got, want := f.FaceCount(0), 5*6; got != want {
		t.Fatalf("FaceCount(x) = %d, want %d", got, want)
	}
	if got, want := f.FaceCount(1), (4+2)*6; got != want {
		t.Fatalf("FaceCount(y) = %d, want %d", got, want)
	}
	if got, want := f.FaceCount(2), (4+2)*(5+2); got != want {
		t.Fatalf("FaceCount(z) = %d, want %d", got, want)
	}
}

func TestDimsHelpers(t *testing.T) {
	d := Dims{3, 4, 5}
	if d.Volume() != 60 {
		t.Fatalf("Volume = %d", d.Volume())
	}
	for dim, want := range []int{3, 4, 5} {
		if d.Axis(dim) != want {
			t.Fatalf("Axis(%d) = %d, want %d", dim, d.Axis(dim), want)
		}
	}
	if d.WithAxis(1, 9) != (Dims{3, 9, 5}) {
		t.Fatalf("WithAxis = %v", d.WithAxis(1, 9))
	}
	if Uniform(4) != (Dims{4, 4, 4}) {
		t.Fatal("Uniform wrong")
	}
}

func TestSubdomain(t *testing.T) {
	s := Subdomain{Lo: Dims{1, 2, 3}, Size: Dims{2, 2, 2}}
	if !s.Contains(1, 2, 3) || !s.Contains(2, 3, 4) {
		t.Fatal("Contains false negative")
	}
	if s.Contains(3, 2, 3) || s.Contains(0, 2, 3) {
		t.Fatal("Contains false positive")
	}
	if s.Hi() != (Dims{3, 4, 5}) {
		t.Fatalf("Hi = %v", s.Hi())
	}
	if s.Empty() {
		t.Fatal("Empty false positive")
	}
	if !(Subdomain{Size: Dims{0, 1, 1}}).Empty() {
		t.Fatal("Empty false negative")
	}
}

func TestPeriodicDeltaProperty(t *testing.T) {
	prop := func(d float64, pInt uint8) bool {
		p := float64(pInt%50) + 1
		got := periodicDelta(d, p)
		if got < -p/2 || got >= p/2 {
			return false
		}
		// Must differ from d by a multiple of p.
		m := (d - got) / p
		return math.Abs(m-math.Round(m)) < 1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGaussianAnalyticAtZero(t *testing.T) {
	n := Uniform(12)
	g := DefaultGaussian(n)
	c := Velocity{1, 0.5, 0.25}
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				if got, want := g.Analytic(n, c, 0, i, j, k), g.Eval(n, i, j, k); got != want {
					t.Fatalf("Analytic(t=0) != Eval at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestGaussianPeriodicTranslation(t *testing.T) {
	// Advecting by exactly one full period returns the initial condition.
	n := Uniform(10)
	g := DefaultGaussian(n)
	c := Velocity{1, 0, 0}
	for i := 0; i < n.X; i++ {
		got := g.Analytic(n, c, float64(n.X), i, 5, 5)
		want := g.Eval(n, i, 5, 5)
		if math.Abs(got-want) > 1e-15 {
			t.Fatalf("full-period translation changed value at i=%d: %v vs %v", i, got, want)
		}
	}
}

func TestGaussianIntegerShift(t *testing.T) {
	// Advecting by an integer number of points shifts the lattice samples.
	n := Uniform(16)
	g := DefaultGaussian(n)
	c := Velocity{1, 1, 1}
	for k := 0; k < n.Z; k++ {
		for j := 0; j < n.Y; j++ {
			for i := 0; i < n.X; i++ {
				got := g.Analytic(n, c, 3, i, j, k)
				want := g.Eval(n, wrap(i-3, n.X), wrap(j-3, n.Y), wrap(k-3, n.Z))
				if math.Abs(got-want) > 1e-15 {
					t.Fatalf("shift mismatch at (%d,%d,%d)", i, j, k)
				}
			}
		}
	}
}

func TestDiffNorms(t *testing.T) {
	n := Dims{3, 3, 3}
	a := NewField(n, 1)
	b := NewField(n, 1)
	if nm := DiffNorms(a, b); nm.L2 != 0 || nm.LInf != 0 {
		t.Fatalf("zero fields: %+v", nm)
	}
	a.Set(1, 1, 1, 3)
	nm := DiffNorms(a, b)
	if nm.LInf != 3 {
		t.Fatalf("LInf = %v, want 3", nm.LInf)
	}
	want := math.Sqrt(9.0 / 27.0)
	if math.Abs(nm.L2-want) > 1e-15 {
		t.Fatalf("L2 = %v, want %v", nm.L2, want)
	}
}

func TestNormsAgainst(t *testing.T) {
	n := Dims{4, 4, 4}
	f := NewField(n, 1)
	f.Fill(func(i, j, k int) float64 { return float64(i) })
	nm := NormsAgainst(f, func(i, j, k int) float64 { return float64(i) })
	if nm.L2 != 0 || nm.LInf != 0 {
		t.Fatalf("exact match: %+v", nm)
	}
	nm = NormsAgainst(f, func(i, j, k int) float64 { return float64(i) + 2 })
	if nm.LInf != 2 || math.Abs(nm.L2-2) > 1e-15 {
		t.Fatalf("offset: %+v", nm)
	}
}

func TestVelocityMaxAbs(t *testing.T) {
	if got := (Velocity{-3, 2, 1}).MaxAbs(); got != 3 {
		t.Fatalf("MaxAbs = %v, want 3", got)
	}
}

func TestPackUnpackInverseProperty(t *testing.T) {
	// Packing a face and unpacking it into the mirror halo of an
	// identically-shaped field is lossless for any shape, dimension,
	// direction, and depth.
	prop := func(a, b, c uint8, dimRaw, dirRaw, depthRaw uint8) bool {
		h := int(depthRaw%2) + 1
		n := Dims{X: int(a%6) + h + 2, Y: int(b%6) + h + 2, Z: int(c%6) + h + 2}
		dim := int(dimRaw % 3)
		dir := 1
		if dirRaw%2 == 0 {
			dir = -1
		}
		src := NewField(n, h)
		seed := uint64(1)
		src.Fill(func(i, j, k int) float64 {
			seed = seed*6364136223846793005 + 1442695040888963407
			return float64(seed >> 40)
		})
		// Fill src halos too so the widened pack ranges carry data.
		src.CopyPeriodicHalos()

		buf := make([]float64, src.FaceCount(dim)*h)
		if p := src.PackFace(dim, dir, h, buf); p != len(buf) {
			return false
		}
		dst := NewField(n, h)
		if u := dst.UnpackFace(dim, -dir, h, buf); u != len(buf) {
			return false
		}
		// The unpacked halo layer must equal the packed boundary layer.
		for g := 0; g < h; g++ {
			var srcFix, dstFix int
			if dir < 0 {
				srcFix, dstFix = g, n.Axis(dim)+g
			} else {
				srcFix, dstFix = n.Axis(dim)-1-g, -1-g
			}
			lo := [3]int{0, 0, 0}
			hi := [3]int{n.X, n.Y, n.Z}
			for d := 0; d < dim; d++ {
				lo[d], hi[d] = -h, hi[d]+h
			}
			idx := [3]int{}
			for idx[2] = lo[2]; idx[2] < hi[2]; idx[2]++ {
				for idx[1] = lo[1]; idx[1] < hi[1]; idx[1]++ {
					for idx[0] = lo[0]; idx[0] < hi[0]; idx[0]++ {
						if idx[dim] != lo[dim] {
							continue // the fixed dimension is overridden below
						}
						si, sj, sk := idx[0], idx[1], idx[2]
						di, dj, dk := idx[0], idx[1], idx[2]
						switch dim {
						case 0:
							si, di = srcFix, dstFix
						case 1:
							sj, dj = srcFix, dstFix
						case 2:
							sk, dk = srcFix, dstFix
						}
						if src.At(si, sj, sk) != dst.At(di, dj, dk) {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestIntersect(t *testing.T) {
	a := Subdomain{Lo: Dims{X: 0, Y: 0, Z: 0}, Size: Dims{X: 5, Y: 5, Z: 5}}
	b := Subdomain{Lo: Dims{X: 3, Y: 2, Z: 4}, Size: Dims{X: 5, Y: 1, Z: 5}}
	got := Intersect(a, b)
	want := Subdomain{Lo: Dims{X: 3, Y: 2, Z: 4}, Size: Dims{X: 2, Y: 1, Z: 1}}
	if got != want {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
	// Disjoint boxes intersect to empty.
	c := Subdomain{Lo: Dims{X: 9, Y: 9, Z: 9}, Size: Dims{X: 2, Y: 2, Z: 2}}
	if !Intersect(a, c).Empty() {
		t.Fatal("disjoint intersect not empty")
	}
}

func TestIntersectProperty(t *testing.T) {
	prop := func(ax, ay, az, bx, by, bz uint8) bool {
		a := Subdomain{
			Lo:   Dims{X: int(ax % 10), Y: int(ay % 10), Z: int(az % 10)},
			Size: Dims{X: int(bx%5) + 1, Y: int(by%5) + 1, Z: int(bz%5) + 1},
		}
		b := Subdomain{
			Lo:   Dims{X: int(bz % 10), Y: int(bx % 10), Z: int(by % 10)},
			Size: Dims{X: int(az%5) + 1, Y: int(ax%5) + 1, Z: int(ay%5) + 1},
		}
		got := Intersect(a, b)
		// Pointwise check.
		for k := -1; k < 16; k++ {
			for j := -1; j < 16; j++ {
				for i := -1; i < 16; i++ {
					in := a.Contains(i, j, k) && b.Contains(i, j, k)
					if got.Contains(i, j, k) != in {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
