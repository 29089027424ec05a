package grid

import (
	"math"
	"math/rand"
	"testing"
)

type tableCase struct {
	n   Dims
	g   Gaussian
	c   Velocity
	t   float64
	box Subdomain
}

// tableCases are waves, grids and boxes chosen to hit what the tables could
// get wrong: non-cubic grids, centres off the middle and off the grid
// points, boxes with a non-zero corner that run past either end of the
// periodic grid, every combination of velocity signs, t ≠ 0.
func tableCases() []tableCase {
	type tc = tableCase
	n := Dims{X: 13, Y: 9, Z: 11}
	off := Gaussian{Center: [3]float64{2.3, 7.75, 0.1}, Sigma: 1.7}
	var out []tc
	for _, sx := range []float64{1, -1} {
		for _, sy := range []float64{1, -1} {
			for _, sz := range []float64{1, -1} {
				c := Velocity{X: sx, Y: 0.5 * sy, Z: 0.25 * sz}
				out = append(out,
					tc{n, off, c, 0, Subdomain{Size: n}},
					tc{n, off, c, 3.7, Subdomain{Size: n}},
					tc{n, off, c, 41.3, Subdomain{Lo: Dims{X: 9, Y: -4, Z: 7}, Size: Dims{X: 8, Y: 7, Z: 9}}},
				)
			}
		}
	}
	cube := Uniform(10)
	out = append(out,
		tc{cube, DefaultGaussian(cube), Velocity{X: 1, Y: 0.5, Z: 0.25}, 0.125, Subdomain{Size: cube}},
		tc{cube, DefaultGaussian(cube), Velocity{X: 1, Y: 0.5, Z: 0.25}, 2, Subdomain{Lo: Dims{X: 5, Y: 5, Z: 0}, Size: Dims{X: 5, Y: 5, Z: 10}}},
	)
	return out
}

// TestGaussianTableMatchesOracles: the table's fill is Analytic (and, at
// t = 0, Eval) bit for bit, and DiffSums over all rows gives NormsAgainst's
// norms bit for bit, and over a split of the rows the same maximum.
func TestGaussianTableMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for ci, tc := range tableCases() {
		tab := tc.g.Table(tc.n, tc.c, tc.t, tc.box)
		f := NewField(tc.box.Size, 2)
		rows := tab.Rows()
		cut := rows / 3
		tab.Fill(f, cut, rows) // out of order, in two ranges
		tab.Fill(f, 0, cut)
		oracle := func(i, j, k int) float64 {
			return tc.g.Analytic(tc.n, tc.c, tc.t, tc.box.Lo.X+i, tc.box.Lo.Y+j, tc.box.Lo.Z+k)
		}
		for k := 0; k < f.N.Z; k++ {
			for j := 0; j < f.N.Y; j++ {
				for i := 0; i < f.N.X; i++ {
					want := oracle(i, j, k)
					if tc.t == 0 {
						want = tc.g.Eval(tc.n, tc.box.Lo.X+i, tc.box.Lo.Y+j, tc.box.Lo.Z+k)
					}
					if got := f.At(i, j, k); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("case %d: fill at (%d,%d,%d) = %v, oracle %v", ci, i, j, k, got, want)
					}
				}
			}
		}
		if s := f.At(-1, 0, 0) + f.At(f.N.X, 0, 0) + f.At(0, -2, 0) + f.At(0, 0, f.N.Z+1); s != 0 {
			t.Fatalf("case %d: fill wrote into the halo", ci)
		}

		// A field that differs from the wave everywhere.
		g := NewField(tc.box.Size, 1)
		g.Fill(func(i, j, k int) float64 { return oracle(i, j, k) + rng.NormFloat64()*1e-3 })
		want := NormsAgainst(g, oracle)
		sumSq, maxAbs := tab.DiffSums(g, 0, rows)
		if got := (Norms{L2: math.Sqrt(sumSq / float64(g.N.Volume())), LInf: maxAbs}); got != want {
			t.Fatalf("case %d: table norms %+v, NormsAgainst %+v", ci, got, want)
		}
		s1, m1 := tab.DiffSums(g, 0, cut)
		s2, m2 := tab.DiffSums(g, cut, rows)
		if math.Max(m1, m2) != want.LInf {
			t.Fatalf("case %d: split max %v, whole %v", ci, math.Max(m1, m2), want.LInf)
		}
		whole := want.L2 * want.L2 * float64(g.N.Volume())
		if math.Abs(s1+s2-whole) > 1e-13*whole {
			t.Fatalf("case %d: split Σd² %v, whole %v", ci, s1+s2, whole)
		}
	}
}

func TestFillGaussianIsEval(t *testing.T) {
	n := Dims{X: 7, Y: 12, Z: 5}
	g := Gaussian{Center: [3]float64{6.9, 0.2, 2.5}, Sigma: 1.1}
	f, want := NewField(n, 1), NewField(n, 1)
	FillGaussian(f, g)
	want.Fill(func(i, j, k int) float64 { return g.Eval(n, i, j, k) })
	if nm := DiffNorms(f, want); nm.LInf != 0 {
		t.Fatalf("FillGaussian differs from Eval: %+v", nm)
	}
}

func TestGaussianTableRejectsOtherShapes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("a field that is not the table's box was accepted")
		}
	}()
	n := Uniform(6)
	tab := DefaultGaussian(n).Table(n, Velocity{}, 0, Subdomain{Size: Dims{X: 6, Y: 6, Z: 3}})
	tab.Fill(NewField(n, 1), 0, 1)
}

func TestCopyBox(t *testing.T) {
	src := NewField(Dims{X: 6, Y: 5, Z: 4}, 2)
	src.Fill(func(i, j, k int) float64 { return float64(100*i + 10*j + k) })
	dst := NewField(Dims{X: 8, Y: 7, Z: 9}, 1)
	box := Subdomain{Lo: Dims{X: 1, Y: 2, Z: 1}, Size: Dims{X: 4, Y: 3, Z: 2}}
	lo := Dims{X: 3, Y: 0, Z: 6}
	dst.CopyBox(lo, src, box)
	var sum float64
	for k := 0; k < box.Size.Z; k++ {
		for j := 0; j < box.Size.Y; j++ {
			for i := 0; i < box.Size.X; i++ {
				want := src.At(box.Lo.X+i, box.Lo.Y+j, box.Lo.Z+k)
				if got := dst.At(lo.X+i, lo.Y+j, lo.Z+k); got != want {
					t.Fatalf("(%d,%d,%d): got %v want %v", i, j, k, got, want)
				}
				sum += want
			}
		}
	}
	var all float64
	for _, v := range dst.Data() {
		all += v
	}
	if all != sum {
		t.Fatalf("CopyBox wrote outside the box: total %v, box %v", all, sum)
	}
}

func TestNewFieldOnSharesStorage(t *testing.T) {
	n := Dims{X: 3, Y: 4, Z: 2}
	data := make([]float64, 5*6*4)
	f := NewFieldOn(n, 1, data)
	f.Set(0, 0, 0, 7)
	if data[f.Idx(0, 0, 0)] != 7 {
		t.Fatal("NewFieldOn does not view the given storage")
	}
	if a := testing.AllocsPerRun(10, func() { NewFieldOn(n, 1, data) }); a > 1 {
		t.Fatalf("NewFieldOn allocates %v times: it must not allocate storage of its own", a)
	}
}

func BenchmarkFillGaussian(b *testing.B) {
	f := NewField(Uniform(64), 1)
	g := DefaultGaussian(f.N)
	b.SetBytes(int64(8 * f.N.Volume()))
	for i := 0; i < b.N; i++ {
		FillGaussian(f, g)
	}
}
