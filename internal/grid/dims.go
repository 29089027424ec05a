// Package grid provides the spatial substrate for the advection test case:
// three-dimensional fields with halo (ghost) layers, periodic-boundary
// helpers, the paper's "as cubic as possible" task decomposition (§IV-B),
// the box-in-box CPU/GPU partition (§IV-H, Fig. 1), Gaussian initial
// conditions, the analytic solution, and error norms.
package grid

import "fmt"

// Dims holds one extent per space dimension.
type Dims struct {
	X, Y, Z int
}

// Volume returns the number of points in a Dims-sized box.
func (d Dims) Volume() int { return d.X * d.Y * d.Z }

// Axis returns the extent along dim (0=x, 1=y, 2=z).
func (d Dims) Axis(dim int) int {
	switch dim {
	case 0:
		return d.X
	case 1:
		return d.Y
	case 2:
		return d.Z
	}
	panic(fmt.Sprintf("grid: bad dimension %d", dim))
}

// WithAxis returns a copy of d with the extent along dim replaced by v.
func (d Dims) WithAxis(dim, v int) Dims {
	switch dim {
	case 0:
		d.X = v
	case 1:
		d.Y = v
	case 2:
		d.Z = v
	default:
		panic(fmt.Sprintf("grid: bad dimension %d", dim))
	}
	return d
}

// Uniform returns a Dims with every extent equal to n.
func Uniform(n int) Dims { return Dims{n, n, n} }

func (d Dims) String() string { return fmt.Sprintf("%dx%dx%d", d.X, d.Y, d.Z) }

// Subdomain is an axis-aligned box of grid points: the half-open region
// [Lo.X, Lo.X+Size.X) × [Lo.Y, Lo.Y+Size.Y) × [Lo.Z, Lo.Z+Size.Z).
type Subdomain struct {
	Lo   Dims
	Size Dims
}

// Volume returns the number of points in the subdomain.
func (s Subdomain) Volume() int { return s.Size.Volume() }

// Hi returns the exclusive upper corner of the subdomain.
func (s Subdomain) Hi() Dims {
	return Dims{s.Lo.X + s.Size.X, s.Lo.Y + s.Size.Y, s.Lo.Z + s.Size.Z}
}

// Contains reports whether global point (i, j, k) lies inside the subdomain.
func (s Subdomain) Contains(i, j, k int) bool {
	h := s.Hi()
	return i >= s.Lo.X && i < h.X && j >= s.Lo.Y && j < h.Y && k >= s.Lo.Z && k < h.Z
}

// Empty reports whether the subdomain holds no points.
func (s Subdomain) Empty() bool {
	return s.Size.X <= 0 || s.Size.Y <= 0 || s.Size.Z <= 0
}

func (s Subdomain) String() string {
	return fmt.Sprintf("[%v+%v)", s.Lo, s.Size)
}

// Intersect returns the overlap of two subdomains (possibly empty).
func Intersect(a, b Subdomain) Subdomain {
	lo := Dims{max(a.Lo.X, b.Lo.X), max(a.Lo.Y, b.Lo.Y), max(a.Lo.Z, b.Lo.Z)}
	ah, bh := a.Hi(), b.Hi()
	hi := Dims{min(ah.X, bh.X), min(ah.Y, bh.Y), min(ah.Z, bh.Z)}
	sz := Dims{hi.X - lo.X, hi.Y - lo.Y, hi.Z - lo.Z}
	if sz.X < 0 {
		sz.X = 0
	}
	if sz.Y < 0 {
		sz.Y = 0
	}
	if sz.Z < 0 {
		sz.Z = 0
	}
	return Subdomain{Lo: lo, Size: sz}
}

// Layer returns depth planes of dimension dim of an n-point domain,
// starting at coordinate at: widened by widen halo points on both sides in
// the dimensions below dim and interior in those above it. It is the one
// geometry of the dimension-serialized halo exchange (§IV-B): with widen
// the halo width, the face a phase sends (at 0 or n−depth), the halo it
// fills (at −depth or n), and the six halo slabs that tile the shell once.
func Layer(n Dims, widen, dim, at, depth int) Subdomain {
	lo, size := [3]int{}, [3]int{n.X, n.Y, n.Z}
	for d := 0; d < dim; d++ {
		lo[d], size[d] = -widen, size[d]+2*widen
	}
	lo[dim], size[dim] = at, depth
	return Subdomain{Lo: Dims{lo[0], lo[1], lo[2]}, Size: Dims{size[0], size[1], size[2]}}
}
