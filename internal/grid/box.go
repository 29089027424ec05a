package grid

import "fmt"

// BoxSplit is the CPU/GPU partition of a task-local domain (paper §IV-H,
// Fig. 1): the GPU computes an interior block and the CPU computes the
// enclosing box (shell) of wall thickness T around it. T is the tunable
// load-balance parameter of §IV-H/§IV-I; the paper finds the best T is
// often just 1, a "veneer" of CPU points.
type BoxSplit struct {
	Local Dims // task-local interior extents
	T     int  // shell thickness in points
}

// NewBoxSplit validates that a thickness-t shell leaves a non-empty interior
// block in an n-point local domain.
func NewBoxSplit(n Dims, t int) (BoxSplit, error) {
	if t < 0 {
		return BoxSplit{}, fmt.Errorf("grid: negative box thickness %d", t)
	}
	if 2*t >= n.X || 2*t >= n.Y || 2*t >= n.Z {
		return BoxSplit{}, fmt.Errorf("grid: thickness %d leaves no GPU interior in %v", t, n)
	}
	return BoxSplit{Local: n, T: t}, nil
}

// Inner returns the GPU's interior block in local coordinates.
func (b BoxSplit) Inner() Subdomain {
	t := b.T
	return Subdomain{
		Lo:   Dims{t, t, t},
		Size: Dims{b.Local.X - 2*t, b.Local.Y - 2*t, b.Local.Z - 2*t},
	}
}

// Walls returns the six disjoint slabs that tile the CPU shell, ordered
// -z, +z, -y, +y, -x, +x. The z walls span full xy planes; the y walls
// exclude the z walls; the x walls exclude both. An implementation that
// overlaps MPI in dimension d with CPU computation of the d walls (paper
// §IV-I) iterates this slice two at a time. With T == 0 all walls are empty.
func (b BoxSplit) Walls() []Subdomain {
	t := b.T
	n := b.Local
	return []Subdomain{
		{Lo: Dims{0, 0, 0}, Size: Dims{n.X, n.Y, t}},
		{Lo: Dims{0, 0, n.Z - t}, Size: Dims{n.X, n.Y, t}},
		{Lo: Dims{0, 0, t}, Size: Dims{n.X, t, n.Z - 2*t}},
		{Lo: Dims{0, n.Y - t, t}, Size: Dims{n.X, t, n.Z - 2*t}},
		{Lo: Dims{0, t, t}, Size: Dims{t, n.Y - 2*t, n.Z - 2*t}},
		{Lo: Dims{n.X - t, t, t}, Size: Dims{t, n.Y - 2*t, n.Z - 2*t}},
	}
}

// WallsByDim returns the pair of walls whose outward normal is along dim,
// matching the §IV-I overlap schedule (communication to the ±dim neighbors
// overlaps computation of the ±dim walls). dim is 0 for x, 1 for y, 2 for z.
func (b BoxSplit) WallsByDim(dim int) [2]Subdomain {
	w := b.Walls()
	switch dim {
	case 2:
		return [2]Subdomain{w[0], w[1]}
	case 1:
		return [2]Subdomain{w[2], w[3]}
	case 0:
		return [2]Subdomain{w[4], w[5]}
	}
	panic(fmt.Sprintf("grid: bad dimension %d", dim))
}
