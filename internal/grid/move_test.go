package grid

import (
	"fmt"
	"math/rand"
	"testing"
)

// eachPoint calls fn for the points of box in storage order: x fastest,
// then y, then z — the order Pack writes.
func eachPoint(box Subdomain, fn func(i, j, k int)) {
	hi := box.Hi()
	for k := box.Lo.Z; k < hi.Z; k++ {
		for j := box.Lo.Y; j < hi.Y; j++ {
			for i := box.Lo.X; i < hi.X; i++ {
				fn(i, j, k)
			}
		}
	}
}

// numbered returns a field whose every stored value, halos included, is
// distinct.
func numbered(n Dims, h int, base float64) *Field {
	f := NewField(n, h)
	for i := range f.Data() {
		f.Data()[i] = base + float64(i)
	}
	return f
}

// randomBox draws a box of the halo-widened range of an n-point field with
// halo h; width, when positive, fixes its x extent.
func randomBox(rng *rand.Rand, n Dims, h, width int) Subdomain {
	var b Subdomain
	for d := 0; d < 3; d++ {
		w := width
		if d > 0 || w <= 0 {
			w = 1 + rng.Intn(n.Axis(d)+2*h)
		}
		b.Lo = b.Lo.WithAxis(d, -h+rng.Intn(n.Axis(d)+2*h-w+1))
		b.Size = b.Size.WithAxis(d, w)
	}
	return b
}

// TestMoverMatchesPointOracle checks every box move against a point-by-
// point At/Set loop: Pack writes a box's points in storage order and
// nothing past them, Unpack writes them back and touches no other point,
// CopyBox lands a box of one field anywhere in another, and the
// periodic sweeps of whole dimensions, x then y then z, give what copying
// each halo point from its periodic image gives. Boxes are
// random over the halo-widened range, from one value wide to n+2h, at halo
// widths 1 to 3 and odd extents no thinner than the halo (a thinner one
// has halo points for periodic images, which no run makes).
func TestMoverMatchesPointOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []Dims{{5, 12, 7}, {3, 4, 3}, {16, 16, 8}} {
		for h := 1; h <= 3; h++ {
			f := numbered(n, h, 0)
			for trial := 0; trial < 40; trial++ {
				width := [2]int{1, n.X + 2*h}[trial%2] // then random widths
				if trial >= 2 {
					width = 0
				}
				box := randomBox(rng, n, h, width)
				vol := box.Volume()

				buf := make([]float64, vol+1)
				buf[vol] = -1
				if got := f.Pack(box, buf); got != vol || buf[vol] != -1 {
					t.Fatalf("%v h%d: Pack(%v) = %d, sentinel %v; want %d values and the sentinel", n, h, box, got, buf[vol], vol)
				}
				at := 0
				eachPoint(box, func(i, j, k int) {
					if buf[at] != f.At(i, j, k) {
						t.Fatalf("%v h%d: Pack(%v)[%d] = %v, want At(%d,%d,%d) = %v", n, h, box, at, buf[at], i, j, k, f.At(i, j, k))
					}
					at++
				})

				g, want := numbered(n, h, 1e6), numbered(n, h, 1e6)
				for i := range buf {
					buf[i] = -float64(i) - 2
				}
				if got := g.Unpack(box, buf); got != vol {
					t.Fatalf("%v h%d: Unpack(%v) = %d, want %d", n, h, box, got, vol)
				}
				at = 0
				eachPoint(box, func(i, j, k int) { want.Set(i, j, k, buf[at]); at++ })
				sameStorage(t, fmt.Sprintf("%v h%d: Unpack(%v)", n, h, box), g, want)

				// CopyBox lands the box anywhere in a field of another
				// shape and halo width.
				m := Dims{n.X + 2*h, n.Y + 2*h - 1, n.Z + 2*h}
				dst, want := numbered(m, 1, 2e6), numbered(m, 1, 2e6)
				var lo Dims
				for d := 0; d < 3; d++ {
					lo = lo.WithAxis(d, -1+rng.Intn(m.Axis(d)+3-box.Size.Axis(d)))
				}
				dst.CopyBox(lo, f, box)
				eachPoint(box, func(i, j, k int) {
					want.Set(lo.X+i-box.Lo.X, lo.Y+j-box.Lo.Y, lo.Z+k-box.Lo.Z, f.At(i, j, k))
				})
				sameStorage(t, fmt.Sprintf("%v h%d: CopyBox(%v, %v)", n, h, lo, box), dst, want)
			}

			got, want := numbered(n, h, 0), numbered(n, h, 0)
			for dim := 0; dim < 3; dim++ {
				nd := n.Axis(dim)
				for _, side := range [2][2]int{{-h, nd}, {nd, -nd}} { // halo start, offset to its image
					eachPoint(Layer(n, h, dim, side[0], h), func(i, j, k int) {
						c := [3]int{i, j, k}
						c[dim] += side[1]
						want.Set(i, j, k, want.At(c[0], c[1], c[2]))
					})
				}
				got.PeriodicSweep(dim)
			}
			sameStorage(t, fmt.Sprintf("%v h%d: periodic sweeps", n, h), got, want)
		}
	}
}

// sameStorage fails unless two fields hold the same values everywhere,
// halos included.
func sameStorage(t *testing.T, what string, got, want *Field) {
	t.Helper()
	for i, v := range want.Data() {
		if got.Data()[i] != v {
			t.Fatalf("%s: storage index %d is %v, want %v", what, i, got.Data()[i], v)
		}
	}
}

// TestLayersTileTheHaloShell: the six Layers of depth h beyond an n-point
// domain's faces cover each point of its halo shell exactly once, and no
// interior point.
func TestLayersTileTheHaloShell(t *testing.T) {
	for _, n := range []Dims{{5, 12, 7}, {1, 1, 1}, {4, 3, 6}} {
		for h := 1; h <= 3; h++ {
			f := NewField(n, h)
			points := 0
			for dim := 0; dim < 3; dim++ {
				for _, at := range []int{-h, n.Axis(dim)} {
					box := Layer(n, h, dim, at, h)
					points += box.Volume()
					eachPoint(box, func(i, j, k int) { f.Set(i, j, k, f.At(i, j, k)+1) })
				}
			}
			w := Dims{n.X + 2*h, n.Y + 2*h, n.Z + 2*h}
			if want := w.Volume() - n.Volume(); points != want {
				t.Fatalf("%v h%d: the layers hold %d points, the shell %d", n, h, points, want)
			}
			eachPoint(Subdomain{Lo: Dims{-h, -h, -h}, Size: w}, func(i, j, k int) {
				want := 1.0
				if (Subdomain{Size: n}).Contains(i, j, k) {
					want = 0
				}
				if got := f.At(i, j, k); got != want {
					t.Fatalf("%v h%d: point (%d,%d,%d) covered %v times, want %v", n, h, i, j, k, got, want)
				}
			})
		}
	}
}

// moveCases are the fields the move benchmarks time: a 128³ rank of
// steady_large and the 16×16×8 rank of halo_small's two-task runs, at
// halo width 1 and at wide-halo's 2.
var moveCases = []struct {
	name string
	n    Dims
}{
	{"n128", Uniform(128)},
	{"n16x16x8", Dims{X: 16, Y: 16, Z: 8}},
}

func BenchmarkPackFace(b *testing.B) {
	for _, c := range moveCases {
		for h := 1; h <= 2; h++ {
			f := NewField(c.n, h)
			buf := make([]float64, (c.n.X+2*h)*(c.n.Y+2*h)*h)
			for dim, name := range []string{"x", "y", "z"} {
				b.Run(fmt.Sprintf("%s/d%d/%s", c.name, h, name), func(b *testing.B) {
					b.SetBytes(int64(8 * h * f.FaceCount(dim)))
					for i := 0; i < b.N; i++ {
						f.PackFace(dim, 1, h, buf)
					}
				})
				b.Run(fmt.Sprintf("%s/d%d/un%s", c.name, h, name), func(b *testing.B) {
					b.SetBytes(int64(8 * h * f.FaceCount(dim)))
					for i := 0; i < b.N; i++ {
						f.UnpackFace(dim, -1, h, buf)
					}
				})
			}
		}
	}
}

func BenchmarkPeriodicSweep(b *testing.B) {
	for _, n := range []int{16, 128} {
		for h := 1; h <= 2; h++ {
			f := NewField(Uniform(n), h)
			for dim, name := range []string{"x", "y", "z"} {
				b.Run(fmt.Sprintf("n%d/w%d/%s", n, h, name), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						f.PeriodicSweep(dim)
					}
				})
			}
		}
	}
}
