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
// where they start at lo, one x-row at a time.
func (f *Field) CopyBox(lo Dims, src *Field, box Subdomain) {
	nx := box.Size.X
	for k := 0; k < box.Size.Z; k++ {
		for j := 0; j < box.Size.Y; j++ {
			d := f.Idx(lo.X, lo.Y+j, lo.Z+k)
			s := src.Idx(box.Lo.X, box.Lo.Y+j, box.Lo.Z+k)
			copy(f.data[d:d+nx], src.data[s:s+nx])
		}
	}
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
		f.PeriodicSweep(dim, 0, f.PeriodicRows(dim))
	}
}

// PeriodicRows returns how many independent rows the periodic sweep of
// dimension dim has: the interior (k, j) rows for x, the interior z planes
// for y, the halo-widened y rows for z.
func (f *Field) PeriodicRows(dim int) int {
	switch dim {
	case 0:
		return f.N.Y * f.N.Z
	case 1:
		return f.N.Z
	}
	return f.N.Y + 2*f.Halo
}

// PeriodicSweep performs rows [lo, hi) of dimension dim's periodic sweep.
// Rows of one sweep touch disjoint halo points and read only interior
// planes of dim, so a thread team may split them freely; a sweep must
// finish before the next dimension's starts, whose rows span the halos it
// filled.
func (f *Field) PeriodicSweep(dim, lo, hi int) {
	h, n := f.Halo, f.N
	switch dim {
	case 0:
		j, k := lo%n.Y, lo/n.Y // one division per call: (j, k) advance with the row
		for r := lo; r < hi; r++ {
			row := f.Idx(0, j, k)
			for g := 1; g <= h; g++ {
				f.data[row-g] = f.data[row+n.X-g]
				f.data[row+n.X-1+g] = f.data[row+g-1]
			}
			if j++; j == n.Y {
				j, k = 0, k+1
			}
		}
	case 1:
		for k := lo; k < hi; k++ {
			for g := 1; g <= h; g++ {
				f.copyWideRow(-g, k, n.Y-g, k)
				f.copyWideRow(n.Y-1+g, k, g-1, k)
			}
		}
	default:
		for j := lo - h; j < hi-h; j++ {
			for g := 1; g <= h; g++ {
				f.copyWideRow(j, -g, j, n.Z-g)
				f.copyWideRow(j, n.Z-1+g, j, g-1)
			}
		}
	}
}

// copyWideRow copies the halo-widened x-row (sj, sk) onto row (dj, dk).
func (f *Field) copyWideRow(dj, dk, sj, sk int) {
	w := f.N.X + 2*f.Halo
	d, s := f.Idx(-f.Halo, dj, dk), f.Idx(-f.Halo, sj, sk)
	copy(f.data[d:d+w], f.data[s:s+w])
}

// PackFace copies the plane of points used for the halo exchange in
// dimension dim (0,1,2) on side dir (-1 or +1) into buf and returns the
// number of values written. The packed plane spans the full halo-widened
// range in dimensions below dim (which have already been exchanged) and the
// interior range in dimensions above, matching the serialized-dimension
// exchange of §IV-B. depth selects how many layers to pack (the halo width
// of the receiver); layer g ∈ [0, depth) is the g-th interior plane counted
// inward from the boundary on that side.
func (f *Field) PackFace(dim, dir, depth int, buf []float64) int {
	lo, hi := f.faceRange(dim)
	n := 0
	for g := 0; g < depth; g++ {
		var fix int
		if dir < 0 {
			fix = g // planes 0..depth-1
		} else {
			fix = f.N.Axis(dim) - 1 - g
		}
		n += f.copyPlane(dim, fix, lo, hi, buf[n:], true)
	}
	return n
}

// UnpackFace is the inverse of PackFace: it copies buf into the halo layers
// in dimension dim on side dir. Layer g ∈ [0, depth) is the g-th halo plane
// counted outward from the boundary.
func (f *Field) UnpackFace(dim, dir, depth int, buf []float64) int {
	lo, hi := f.faceRange(dim)
	n := 0
	for g := 0; g < depth; g++ {
		var fix int
		if dir < 0 {
			fix = -1 - g
		} else {
			fix = f.N.Axis(dim) + g
		}
		n += f.copyPlane(dim, fix, lo, hi, buf[n:], false)
	}
	return n
}

// FaceCount returns the number of values PackFace writes for one layer of
// the exchange plane in dimension dim.
func (f *Field) FaceCount(dim int) int {
	lo, hi := f.faceRange(dim)
	n := 1
	for d := 0; d < 3; d++ {
		if d != dim {
			n *= hi[d] - lo[d]
		}
	}
	return n
}

// faceRange returns the per-dimension [lo, hi) ranges of the exchange plane
// for dimension dim: halo-widened below dim, interior at and above it.
func (f *Field) faceRange(dim int) (lo, hi [3]int) {
	n := [3]int{f.N.X, f.N.Y, f.N.Z}
	for d := 0; d < 3; d++ {
		if d < dim {
			lo[d], hi[d] = -f.Halo, n[d]+f.Halo
		} else {
			lo[d], hi[d] = 0, n[d]
		}
	}
	return lo, hi
}

// copyPlane copies one plane (the coordinate in dimension dim fixed at fix)
// between the field and buf. pack=true reads the field into buf; pack=false
// writes buf into the field. It returns the number of values moved.
func (f *Field) copyPlane(dim, fix int, lo, hi [3]int, buf []float64, pack bool) int {
	n := 0
	switch dim {
	case 0:
		// One value per x-row: walk each z plane's column by the y stride.
		ny := hi[1] - lo[1]
		for k := lo[2]; k < hi[2]; k++ {
			p := f.Idx(fix, lo[1], k)
			b := buf[n : n+ny]
			if pack {
				for j := range b {
					b[j] = f.data[p]
					p += f.sy
				}
			} else {
				for j := range b {
					f.data[p] = b[j]
					p += f.sy
				}
			}
			n += ny
		}
	case 1:
		for k := lo[2]; k < hi[2]; k++ {
			row := f.Idx(lo[0], fix, k)
			w := hi[0] - lo[0]
			if pack {
				copy(buf[n:n+w], f.data[row:row+w])
			} else {
				copy(f.data[row:row+w], buf[n:n+w])
			}
			n += w
		}
	case 2:
		for j := lo[1]; j < hi[1]; j++ {
			row := f.Idx(lo[0], j, fix)
			w := hi[0] - lo[0]
			if pack {
				copy(buf[n:n+w], f.data[row:row+w])
			} else {
				copy(f.data[row:row+w], buf[n:n+w])
			}
			n += w
		}
	default:
		panic(fmt.Sprintf("grid: bad dimension %d", dim))
	}
	return n
}
