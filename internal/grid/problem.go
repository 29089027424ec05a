package grid

import (
	"fmt"
	"math"
)

// Velocity is the constant uniform advection velocity c = {cx, cy, cz} of
// the test case (paper §II, Eq. 1).
type Velocity struct {
	X, Y, Z float64
}

// MaxAbs returns max{|cx|, |cy|, |cz|}.
func (c Velocity) MaxAbs() float64 {
	return math.Max(math.Abs(c.X), math.Max(math.Abs(c.Y), math.Abs(c.Z)))
}

// Gaussian describes the initial condition of the test case: a Gaussian wave
// centered in the periodic cube (paper §II). Center and Sigma are in grid
// units.
type Gaussian struct {
	Center [3]float64 // wave center in grid coordinates
	Sigma  float64    // standard deviation in grid units
}

// DefaultGaussian centers the wave in an n-point cube with a width
// proportional to the domain, narrow enough that the periodic images are
// negligible but wide enough that the grid resolves it.
func DefaultGaussian(n Dims) Gaussian {
	return Gaussian{
		Center: [3]float64{float64(n.X) / 2, float64(n.Y) / 2, float64(n.Z) / 2},
		Sigma:  float64(minInt(n.X, minInt(n.Y, n.Z))) / 10,
	}
}

// Eval returns the Gaussian evaluated at grid point (i, j, k) in an n-point
// periodic domain, using the minimal-image distance so the wave is smooth
// across the periodic boundaries. It is Analytic at t = 0, bit for bit.
//
// Eval, Analytic and NormsAgainst are the oracles GaussianTable is tested
// against. The float64 conversions round every product where it stands, so
// a target that fuses multiply-adds computes the same bits as the tables.
func (g Gaussian) Eval(n Dims, i, j, k int) float64 {
	dx := periodicDelta(float64(i)-g.Center[0], float64(n.X))
	dy := periodicDelta(float64(j)-g.Center[1], float64(n.Y))
	dz := periodicDelta(float64(k)-g.Center[2], float64(n.Z))
	r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
	return math.Exp(-r2 / (2 * g.Sigma * g.Sigma))
}

// Analytic returns the exact solution of Eq. 1 at grid point (i, j, k) after
// time t: the initial wave translated by c·t with periodic wraparound.
// Velocities are in grid units per unit time and t is in the same time units
// used for the step size Δ.
func (g Gaussian) Analytic(n Dims, c Velocity, t float64, i, j, k int) float64 {
	dx := periodicDelta(float64(i)-float64(c.X*t)-g.Center[0], float64(n.X))
	dy := periodicDelta(float64(j)-float64(c.Y*t)-g.Center[1], float64(n.Y))
	dz := periodicDelta(float64(k)-float64(c.Z*t)-g.Center[2], float64(n.Z))
	r2 := float64(dx*dx) + float64(dy*dy) + float64(dz*dz)
	return math.Exp(-r2 / (2 * g.Sigma * g.Sigma))
}

// GaussianTable evaluates the wave translated by c·t over a box of global
// grid indices from per-axis tables of the squared minimal-image offsets:
// three math.Mod per table entry instead of three per point, and one exp
// per point, taken four at a time by expRow where it can. The three squares
// are summed in Analytic's order, so every value is Analytic's (at t = 0,
// Eval's) bit for bit. Fill and DiffSums take a range of the box's x-rows,
// flattened as (k, j) like stencil.Rows, so a thread team splits one box
// and a rank set splits the grid.
type GaussianTable struct {
	x2, y2, z2 []float64
	den        float64 // 2σ²
	tame       bool    // every exp argument lies in [-expTame, 0]
}

// expTame bounds the exp arguments of a table whose rows the vector body
// may take: far inside the ±708 beyond which math.Exp leaves its normal
// branch for its denormal or overflow one, which the body does not copy.
const expTame = 512

// Table builds the tables of the wave at time t (t = 0: the initial
// condition, whatever c) over box, which is in global indices of the
// n-point periodic grid and may straddle its wrap.
func (g Gaussian) Table(n Dims, c Velocity, t float64, box Subdomain) *GaussianTable {
	axis := func(lo, size int, shift, center, period float64) []float64 {
		sq := make([]float64, size)
		for i := range sq {
			d := periodicDelta(float64(lo+i)-shift-center, period)
			sq[i] = d * d
		}
		return sq
	}
	return newGaussianTable(
		axis(box.Lo.X, box.Size.X, c.X*t, g.Center[0], float64(n.X)),
		axis(box.Lo.Y, box.Size.Y, c.Y*t, g.Center[1], float64(n.Y)),
		axis(box.Lo.Z, box.Size.Z, c.Z*t, g.Center[2], float64(n.Z)),
		2*g.Sigma*g.Sigma)
}

// newGaussianTable wraps the axis tables and bounds the table's exp
// arguments once, from the axis maxima: rounding is monotone, so no point's
// -((x2+y2)+z2)/den lies below the same expression of the maxima, nor above
// -0 when every entry is a square and den > 0.
func newGaussianTable(x2, y2, z2 []float64, den float64) *GaussianTable {
	t := &GaussianTable{x2: x2, y2: y2, z2: z2, den: den}
	t.tame = den > 0 && (maxSquare(x2)+maxSquare(y2)+maxSquare(z2))/den <= expTame
	return t
}

// maxSquare returns the largest entry of sq, or +Inf if one is negative or
// NaN; 0 if sq is empty.
func maxSquare(sq []float64) float64 {
	m := 0.0
	for _, v := range sq {
		if !(v >= 0) {
			return math.Inf(1)
		}
		m = math.Max(m, v)
	}
	return m
}

// Rows returns the number of x-rows of the table's box.
func (t *GaussianTable) Rows() int { return len(t.y2) * len(t.z2) }

// row returns the y and z terms of x-row r and the row's storage in f, whose
// interior must be the table's box.
func (t *GaussianTable) row(f *Field, r int) (y2, z2 float64, row []float64) {
	j, k := r%len(t.y2), r/len(t.y2)
	p := f.Idx(0, j, k)
	return t.y2[j], t.z2[k], f.data[p : p+len(t.x2)]
}

func (t *GaussianTable) check(f *Field) {
	if f.N.X != len(t.x2) || f.N.Y != len(t.y2) || f.N.Z != len(t.z2) {
		panic(fmt.Sprintf("grid: field %v is not the table's box %dx%dx%d", f.N, len(t.x2), len(t.y2), len(t.z2)))
	}
}

// expRow sets dst[i] to math.Exp(-(x2[i]+y2+z2)/den) for each entry x2[i]
// of the x table, bit for bit: four at a time by the vector body where the
// CPU has it and the table is tame, and the last len%4 — or every one —
// by math.Exp itself.
func (t *GaussianTable) expRow(dst []float64, y2, z2 float64) {
	x2, done := t.x2, 0
	dst = dst[:len(x2)]
	if useExpAVX && t.tame && len(x2) >= 4 {
		done = len(x2) &^ 3
		expRowAVX(&dst[0], &x2[0], done/4, y2, z2, t.den)
	}
	for i := done; i < len(x2); i++ {
		dst[i] = math.Exp(-(x2[i] + y2 + z2) / t.den)
	}
}

// Fill sets the x-rows [lo, hi) of f's interior to the wave.
func (t *GaussianTable) Fill(f *Field, lo, hi int) {
	t.check(f)
	for r := lo; r < hi; r++ {
		y2, z2, row := t.row(f, r)
		t.expRow(row, y2, z2)
	}
}

// DiffSums returns Σd² and max|d| of d = f − wave over the x-rows [lo, hi)
// of f's interior, in one pass: each row's wave goes into a buffer of the
// call's own first. Over all rows it accumulates in NormsAgainst's order.
func (t *GaussianTable) DiffSums(f *Field, lo, hi int) (sumSq, maxAbs float64) {
	t.check(f)
	wave := make([]float64, len(t.x2))
	for r := lo; r < hi; r++ {
		y2, z2, row := t.row(f, r)
		t.expRow(wave, y2, z2)
		for i, w := range wave {
			d := row[i] - w
			sumSq += float64(d * d)
			if ad := math.Abs(d); ad > maxAbs {
				maxAbs = ad
			}
		}
	}
	return sumSq, maxAbs
}

// FillGaussian sets the interior of f to the initial condition.
func FillGaussian(f *Field, g Gaussian) {
	t := g.Table(f.N, Velocity{}, 0, Subdomain{Size: f.N})
	t.Fill(f, 0, t.Rows())
}

// periodicDelta maps d into the minimal-image interval [-p/2, p/2).
func periodicDelta(d, p float64) float64 {
	d = math.Mod(d, p)
	if d >= p/2 {
		d -= p
	}
	if d < -p/2 {
		d += p
	}
	return d
}

// Norms holds the error norms used for verification (paper §IV-A records
// norms of the difference between computed and analytic state).
type Norms struct {
	L2   float64 // root-mean-square difference
	LInf float64 // maximum absolute difference
}

// DiffNorms returns the norms of (a - b) over the interior. The fields must
// have identical interior extents.
func DiffNorms(a, b *Field) Norms {
	if a.N != b.N {
		panic("grid: norm of mismatched fields")
	}
	var sum, maxAbs float64
	for k := 0; k < a.N.Z; k++ {
		for j := 0; j < a.N.Y; j++ {
			for i := 0; i < a.N.X; i++ {
				d := a.At(i, j, k) - b.At(i, j, k)
				sum += d * d
				if ad := math.Abs(d); ad > maxAbs {
					maxAbs = ad
				}
			}
		}
	}
	return Norms{
		L2:   math.Sqrt(sum / float64(a.N.Volume())),
		LInf: maxAbs,
	}
}

// NormsAgainst returns the norms of the difference between f and fn
// evaluated at every interior point.
func NormsAgainst(f *Field, fn func(i, j, k int) float64) Norms {
	var sum, maxAbs float64
	for k := 0; k < f.N.Z; k++ {
		for j := 0; j < f.N.Y; j++ {
			for i := 0; i < f.N.X; i++ {
				d := f.At(i, j, k) - fn(i, j, k)
				sum += float64(d * d)
				if ad := math.Abs(d); ad > maxAbs {
					maxAbs = ad
				}
			}
		}
	}
	return Norms{
		L2:   math.Sqrt(sum / float64(f.N.Volume())),
		LInf: maxAbs,
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
