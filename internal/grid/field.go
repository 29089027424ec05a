package grid

import "fmt"

// Field is a three-dimensional scalar field on a uniform grid with a halo
// (ghost) layer of width Halo on every side. Interior indices run over
// [0, N.X) × [0, N.Y) × [0, N.Z); halo indices extend the range by Halo in
// each direction. Storage is a single contiguous slice with x fastest,
// matching the paper's Fortran layout (first index contiguous), so x-runs
// of points are cache- and vector-friendly.
type Field struct {
	N    Dims // interior extents
	Halo int  // halo width on each side

	sy, sz int // strides for y and z steps
	off    int // offset of interior point (0,0,0)
	data   []float64
	sweeps [3]sweep // the periodic copy of each dimension
}

// NewField allocates a zeroed field with the given interior extents and halo
// width.
func NewField(n Dims, halo int) *Field {
	f, size := shape(n, halo)
	f.data = make([]float64, size)
	return f
}

// shape returns a field of the given extents without storage, and the
// number of values its storage must hold.
func shape(n Dims, halo int) (f *Field, size int) {
	if n.X <= 0 || n.Y <= 0 || n.Z <= 0 {
		panic(fmt.Sprintf("grid: non-positive field dims %v", n))
	}
	if halo < 0 {
		panic("grid: negative halo width")
	}
	wx, wy, wz := n.X+2*halo, n.Y+2*halo, n.Z+2*halo
	f = &Field{N: n, Halo: halo, sy: wx, sz: wx * wy}
	f.off = halo*f.sz + halo*f.sy + halo
	f.layOutSweeps()
	return f, wx * wy * wz
}

// NewFieldOn wraps existing storage as a field with the given interior
// extents and halo width. len(data) must match exactly. The GPU
// implementations use this to view simulated device memory as a field so
// kernel bodies can share the host-side indexing and stencil code.
func NewFieldOn(n Dims, halo int, data []float64) *Field {
	f, size := shape(n, halo)
	if len(data) != size {
		panic(fmt.Sprintf("grid: NewFieldOn: storage %d != required %d for %v halo %d",
			len(data), size, n, halo))
	}
	f.data = data
	return f
}

// Idx returns the flat index of point (i, j, k), where interior points have
// 0 ≤ i < N.X etc. and halo points extend the range by ±Halo.
func (f *Field) Idx(i, j, k int) int {
	return f.off + k*f.sz + j*f.sy + i
}

// At returns the value at (i, j, k).
func (f *Field) At(i, j, k int) float64 { return f.data[f.Idx(i, j, k)] }

// Set stores v at (i, j, k).
func (f *Field) Set(i, j, k int, v float64) { f.data[f.Idx(i, j, k)] = v }

// Data exposes the backing slice, including halos. Kernels that need raw
// speed index it via Idx and the strides from Strides.
func (f *Field) Data() []float64 { return f.data }

// Strides returns the flat-index strides (sx, sy, sz) for unit steps in
// x, y, and z. sx is always 1.
func (f *Field) Strides() (sx, sy, sz int) { return 1, f.sy, f.sz }

// Fill sets every interior point to fn(i, j, k).
func (f *Field) Fill(fn func(i, j, k int) float64) {
	for k := 0; k < f.N.Z; k++ {
		for j := 0; j < f.N.Y; j++ {
			row := f.Idx(0, j, k)
			for i := 0; i < f.N.X; i++ {
				f.data[row+i] = fn(i, j, k)
			}
		}
	}
}

// Clone returns a deep copy of the field, halos included.
func (f *Field) Clone() *Field {
	g := NewField(f.N, f.Halo)
	copy(g.data, f.data)
	return g
}

// CopyInteriorFrom copies the interior points of src into f. The two fields
// must have identical interior extents; halo widths may differ.
func (f *Field) CopyInteriorFrom(src *Field) {
	if f.N != src.N {
		panic(fmt.Sprintf("grid: interior mismatch %v vs %v", f.N, src.N))
	}
	f.CopyBox(Dims{}, src, Subdomain{Size: src.N})
}

// CopyBox copies the points of box (in src's coordinates) from src to f,
// where they start at lo.
func (f *Field) CopyBox(lo Dims, src *Field, box Subdomain) {
	moveBox(f.data, f.rowsAt(lo), src.data, src.rowsAt(box.Lo), box.Size)
}

// Swap exchanges the storage of f and g, which must have identical shape.
// It is the cheap way to flip "current" and "next" state between time steps.
func (f *Field) Swap(g *Field) {
	if f.N != g.N || f.Halo != g.Halo {
		panic("grid: swap of mismatched fields")
	}
	f.data, g.data = g.data, f.data
}

// InteriorSum returns the sum of all interior points. For the periodic
// Lax–Wendroff scheme this "mass" is conserved exactly up to roundoff,
// which the tests rely on.
func (f *Field) InteriorSum() float64 {
	var s float64
	for k := 0; k < f.N.Z; k++ {
		for j := 0; j < f.N.Y; j++ {
			row := f.Idx(0, j, k)
			for i := 0; i < f.N.X; i++ {
				s += f.data[row+i]
			}
		}
	}
	return s
}

// CopyPeriodicHalos fills the halo layer from the opposite interior
// boundaries, implementing the periodic domain for a single task
// (paper §IV-A Step 1). The three dimensions are handled serially — x, then
// y, then z — with each later sweep covering the full already-widened range
// of the earlier ones, so edge and corner halos are filled by composition,
// exactly like the 6-neighbor exchange strategy in §IV-B.
func (f *Field) CopyPeriodicHalos() {
	for dim := 0; dim < 3; dim++ {
		f.PeriodicSweep(dim)
	}
}

// sweep is one dimension's periodic copy laid out in the field's storage,
// once, when the field is shaped: the box of the Layer that is the low
// halo, as the destination and source of its copy, each with the box of the
// high halo's copy alt further on.
type sweep struct {
	n        Dims
	dst, src rows
}

// layOutSweeps fills f.sweeps: the low halo takes the high interior
// layers and the high halo the low ones, each a Layer of depth Halo.
func (f *Field) layOutSweeps() {
	h := f.Halo
	for dim := range f.sweeps {
		nd, box := f.N.Axis(dim), Layer(f.N, h, dim, -h, h)
		at := func(c int) rows { return f.rowsAt(box.Lo.WithAxis(dim, c)) }
		d, s := at(-h), at(nd-h)
		d.alt, s.alt = at(nd).at-d.at, at(0).at-s.at
		f.sweeps[dim] = sweep{n: box.Size, dst: d, src: s}
	}
}

// PeriodicSweep fills both halos of dimension dim from the opposite
// interior planes. It reads the halos of the dimensions below dim, so the
// sweeps run in x, y, z order, as CopyPeriodicHalos runs them.
func (f *Field) PeriodicSweep(dim int) {
	s := &f.sweeps[dim]
	moveRows(f.data, s.dst, f.data, s.src, s.n)
}

// PackFace copies the face the halo exchange sends in dimension dim
// (0,1,2) on side dir (-1 or +1) into buf and returns the number of values
// written: the depth interior planes of dim next to that boundary (the
// receiver's halo width), halo-widened in the dimensions below dim (which
// have already been exchanged) and interior above it, matching the
// serialized-dimension exchange of §IV-B. buf holds the face box's x-rows
// in storage order; UnpackFace reads the same order.
func (f *Field) PackFace(dim, dir, depth int, buf []float64) int {
	at := 0
	if dir > 0 {
		at = f.N.Axis(dim) - depth
	}
	return f.Pack(Layer(f.N, f.Halo, dim, at, depth), buf)
}

// UnpackFace is the inverse of PackFace: it copies buf into the depth halo
// planes of dimension dim beyond the boundary on side dir.
func (f *Field) UnpackFace(dim, dir, depth int, buf []float64) int {
	at := -depth
	if dir > 0 {
		at = f.N.Axis(dim)
	}
	return f.Unpack(Layer(f.N, f.Halo, dim, at, depth), buf)
}

// FaceCount returns the number of values PackFace writes for one layer of
// the exchange plane in dimension dim.
func (f *Field) FaceCount(dim int) int { return Layer(f.N, f.Halo, dim, 0, 1).Volume() }

// Pack copies the points of box (halo coordinates allowed) into buf as the
// box's x-rows in storage order and returns the number of values written.
// An empty box writes nothing.
func (f *Field) Pack(box Subdomain, buf []float64) int {
	return moveBox(buf, packed(box.Size), f.data, f.rowsAt(box.Lo), box.Size)
}

// Unpack is the inverse of Pack: it copies buf into the points of box.
func (f *Field) Unpack(box Subdomain, buf []float64) int {
	return moveBox(f.data, f.rowsAt(box.Lo), buf, packed(box.Size), box.Size)
}

// rows lays a box of x-rows out in flat storage: the box's row j of z
// plane k starts at at + j*sy + k*sz. A non-zero alt places a second box
// of the same shape alt further on, which the same pass moves beside the
// first: a periodic sweep's two halos, whose rows share pages, so one pass
// over them is cheaper than two.
type rows struct{ at, sy, sz, alt int }

// rowsAt lays out the x-rows of a box of f whose low corner is lo.
func (f *Field) rowsAt(lo Dims) rows { return rows{at: f.Idx(lo.X, lo.Y, lo.Z), sy: f.sy, sz: f.sz} }

// packed lays out the x-rows of a box of extents n packed end to end.
func packed(n Dims) rows { return rows{sy: n.X, sz: n.X * n.Y} }

// moveBox copies all rows of a box of extents n, none if it is empty, and
// returns its point count.
func moveBox(dst []float64, d rows, src []float64, s rows, n Dims) int {
	if (Subdomain{Size: n}).Empty() {
		return 0
	}
	moveRows(dst, d, src, s, n)
	return n.Volume()
}

// moveRows is the one row mover under every box copy: it copies the
// n.X-value x-rows of a box of extents n from src laid out by s into dst
// laid out by d. Rows evenly spaced on both sides — one a plane, or planes
// that follow on without a gap — are walked as one plane; otherwise the
// walk hands each z plane's rows to moveRun.
func moveRows(dst []float64, d rows, src []float64, s rows, n Dims) {
	ny, nz := n.Y, n.Z
	if ny == 1 {
		d.sy, s.sy = d.sz, s.sz
	}
	if d.sz == ny*d.sy && s.sz == ny*s.sy {
		ny, nz = ny*nz, 1
	}
	for k := 0; k < nz; k++ {
		moveRun(dst, rows{at: d.at + k*d.sz, sy: d.sy, alt: d.alt}, src, rows{at: s.at + k*s.sz, sy: s.sy, alt: s.alt}, n.X, ny)
	}
}

// moveRun copies m rows of w values, d.sy apart in dst from d.at and s.sy
// apart in src from s.at, and the second boxes' rows beside them: as one
// memmove when the rows follow on without a gap on both sides (a box as
// wide as the storage, into or out of a buffer), as w column loops when
// they are short (x faces and x halos), and one memmove a row otherwise.
func moveRun(dst []float64, d rows, src []float64, s rows, w, m int) {
	switch {
	case w < shortRow:
		for i := range w {
			column(dst, d.at+i, d.sy, src, s.at+i, s.sy, m)
			if d.alt != 0 {
				column(dst, d.at+d.alt+i, d.sy, src, s.at+s.alt+i, s.sy, m)
			}
		}
	case d.sy == w && s.sy == w:
		copy(dst[d.at:d.at+m*w], src[s.at:s.at+m*w])
		if d.alt != 0 {
			copy(dst[d.at+d.alt:d.at+d.alt+m*w], src[s.at+s.alt:s.at+s.alt+m*w])
		}
	default:
		for dp, sp := d.at, s.at; m > 0; m-- {
			copy(dst[dp:dp+w], src[sp:sp+w])
			if d.alt != 0 {
				copy(dst[dp+d.alt:dp+d.alt+w], src[sp+s.alt:sp+s.alt+w])
			}
			dp, sp = dp+d.sy, sp+s.sy
		}
	}
}

// shortRow is the row width from which a memmove call a row beats column
// loops: at width 2 (x faces and halos of wide-halo's W = 2) a memmove a
// row took over twice as long.
const shortRow = 4

// column copies m single values stepping dsy through dst and ssy through
// src.
func column(dst []float64, dp, dsy int, src []float64, sp, ssy, m int) {
	for ; m > 0; m-- {
		dst[dp] = src[sp]
		dp, sp = dp+dsy, sp+ssy
	}
}
