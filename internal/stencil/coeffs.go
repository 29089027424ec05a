// Package stencil implements the paper's numerical method (§II): explicit
// Lax–Wendroff time integration of linear advection with constant uniform
// velocity, using a 3×3×3 stencil whose 27 coefficients are given in
// Table I. Written out, each application costs 53 floating-point operations
// per point (27 multiplications and 26 additions), the figure the paper uses
// to convert measured time into GF.
//
// Every GF number in this repository is nominal in that sense: 53 flop per
// point divided by time, the paper's convention, whatever the kernel
// executes. The row kernel (applyRow) executes 22: the Table I coefficients
// are the tensor product a_ijk = qx_i·qy_j·qz_k of three one-dimensional
// Lax–Wendroff stencils, so it sums the nine y-z neighbours of each x once
// and combines three such column sums per point. Op.Point keeps the literal
// 27-term sum as the oracle the kernel is tested against.
package stencil

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// FlopsPerPoint is the nominal operation count of Eq. 2 used for all GF
// numbers and by the gpusim cost model: 27 multiplications and 26 additions.
const FlopsPerPoint = 53

// Coeffs holds the 27 stencil coefficients a_ijk of Eq. 2, indexed by
// At(i, j, k) with i, j, k ∈ {-1, 0, +1}, and the three one-dimensional
// factors (q-1, q0, q+1) per dimension whose tensor product they are; the
// row kernel computes with the factors, Op.Point with the 27.
type Coeffs struct {
	a          [27]float64
	qx, qy, qz [3]float64
}

// setFactors sets the 1-D factors to the Lax–Wendroff weights of velocity c
// at ratio nu.
func (a *Coeffs) setFactors(c grid.Velocity, nu float64) {
	a.qx[0], a.qx[1], a.qx[2] = LW1D(c.X * nu)
	a.qy[0], a.qy[1], a.qy[2] = LW1D(c.Y * nu)
	a.qz[0], a.qz[1], a.qz[2] = LW1D(c.Z * nu)
}

// At returns a_ijk for offsets i, j, k ∈ {-1, 0, +1}.
func (c *Coeffs) At(i, j, k int) float64 {
	return c.a[idx27(i, j, k)]
}

// Flat returns the coefficients as a flat array ordered with i fastest then
// j then k, i.e. index (i+1) + 3*(j+1) + 9*(k+1). GPU implementations load
// this into constant memory.
func (c *Coeffs) Flat() [27]float64 { return c.a }

func idx27(i, j, k int) int {
	if i < -1 || i > 1 || j < -1 || j > 1 || k < -1 || k > 1 {
		panic(fmt.Sprintf("stencil: bad offset (%d,%d,%d)", i, j, k))
	}
	return (i + 1) + 3*(j+1) + 9*(k+1)
}

// TableI computes the 27 coefficients exactly as printed in the paper's
// Table I, as functions of the velocity components and ν = Δ/δ. The
// expressions are transcribed literally; TestTensorIdentity verifies they
// equal the tensor product of three one-dimensional Lax–Wendroff stencils,
// which are kept beside them as the factors.
func TableI(c grid.Velocity, nu float64) *Coeffs {
	cx, cy, cz, v := c.X, c.Y, c.Z, nu
	var a Coeffs
	a.setFactors(c, nu)
	set := func(i, j, k int, val float64) { a.a[idx27(i, j, k)] = val }

	set(-1, -1, -1, cx*cy*cz*v*v*v*(1+cx*v)*(1+cy*v)*(1+cz*v)/8)
	set(-1, -1, 0, -2*cx*cy*v*v*(1+cx*v)*(1+cy*v)*(cz*cz*v*v-1)/8)
	set(-1, -1, +1, cx*cy*cz*v*v*v*(1+cx*v)*(1+cy*v)*(cz*v-1)/8)
	set(-1, 0, -1, -2*cx*cz*v*v*(1+cx*v)*(1+cz*v)*(cy*cy*v*v-1)/8)
	set(-1, 0, 0, 4*cx*v*(1+cx*v)*(cy*cy*v*v-1)*(cz*cz*v*v-1)/8)
	set(-1, 0, +1, -2*cx*cz*v*v*(1+cx*v)*(-1+cz*v)*(-1+cy*cy*v*v)/8)
	set(-1, +1, -1, cx*cy*cz*v*v*v*(1+cx*v)*(-1+cy*v)*(1+cz*v)/8)
	set(-1, +1, 0, -2*cx*cy*v*v*(1+cx*v)*(-1+cy*v)*(-1+cz*cz*v*v)/8)
	set(-1, +1, +1, cx*cy*cz*v*v*v*(1+cx*v)*(-1+cy*v)*(-1+cz*v)/8)

	set(0, -1, -1, -2*cy*cz*v*v*(1+cy*v)*(1+cz*v)*(-1+cx*cx*v*v)/8)
	set(0, -1, 0, 4*cy*v*(1+cy*v)*(-1+cx*cx*v*v)*(-1+cz*cz*v*v)/8)
	set(0, -1, +1, -2*cy*cz*v*v*(1+cy*v)*(-1+cz*v)*(-1+cx*cx*v*v)/8)
	set(0, 0, -1, 4*cz*v*(1+cz*v)*(-1+cx*cx*v*v)*(-1+cy*cy*v*v)/8)
	set(0, 0, 0, -8*(-1+cx*cx*v*v)*(-1+cy*cy*v*v)*(-1+cz*cz*v*v)/8)
	set(0, 0, +1, 4*cz*v*(-1+cz*v)*(-1+cx*cx*v*v)*(-1+cy*cy*v*v)/8)
	set(0, +1, -1, -2*cy*cz*v*v*(-1+cy*v)*(1+cz*v)*(-1+cx*cx*v*v)/8)
	set(0, +1, 0, 4*cy*v*(-1+cy*v)*(-1+cx*cx*v*v)*(-1+cz*cz*v*v)/8)
	set(0, +1, +1, -2*cy*cz*v*v*(-1+cy*v)*(-1+cz*v)*(-1+cx*cx*v*v)/8)

	set(+1, -1, -1, cx*cy*cz*v*v*v*(-1+cx*v)*(1+cy*v)*(1+cz*v)/8)
	set(+1, -1, 0, -2*cx*cy*v*v*(-1+cx*v)*(1+cy*v)*(-1+cz*cz*v*v)/8)
	set(+1, -1, +1, cx*cy*cz*v*v*v*(-1+cx*v)*(1+cy*v)*(-1+cz*v)/8)
	set(+1, 0, -1, -2*cx*cz*v*v*(-1+cx*v)*(1+cz*v)*(-1+cy*cy*v*v)/8)
	set(+1, 0, 0, 4*cx*v*(-1+cx*v)*(-1+cy*cy*v*v)*(-1+cz*cz*v*v)/8)
	set(+1, 0, +1, -2*cx*cz*v*v*(-1+cx*v)*(-1+cz*v)*(-1+cy*cy*v*v)/8)
	set(+1, +1, -1, cx*cy*cz*v*v*v*(-1+cx*v)*(-1+cy*v)*(1+cz*v)/8)
	set(+1, +1, 0, -2*cx*cy*v*v*(-1+cx*v)*(-1+cy*v)*(-1+cz*cz*v*v)/8)
	set(+1, +1, +1, cx*cy*cz*v*v*v*(-1+cx*v)*(-1+cy*v)*(-1+cz*v)/8)
	return &a
}

// LW1D returns the one-dimensional Lax–Wendroff weights (q-1, q0, q+1) for
// Courant number σ = c·ν. The Table I coefficients factor as the tensor
// product a_ijk = qx_i · qy_j · qz_k.
func LW1D(sigma float64) (qm1, q0, qp1 float64) {
	return sigma * (1 + sigma) / 2, 1 - sigma*sigma, sigma * (sigma - 1) / 2
}

// TensorProduct builds the coefficients from the tensor product of the
// one-dimensional Lax–Wendroff stencils. It must agree with TableI to
// roundoff; the reproduction keeps both forms so the literal transcription
// of the paper's table is itself under test.
func TensorProduct(c grid.Velocity, nu float64) *Coeffs {
	var a Coeffs
	a.setFactors(c, nu)
	for k := -1; k <= 1; k++ {
		for j := -1; j <= 1; j++ {
			for i := -1; i <= 1; i++ {
				a.a[idx27(i, j, k)] = a.qx[i+1] * a.qy[j+1] * a.qz[k+1]
			}
		}
	}
	return &a
}

// Sum returns the sum of all coefficients. Consistency of the scheme
// requires the sum to be exactly 1 (a constant field is a fixed point).
func (c *Coeffs) Sum() float64 {
	var s float64
	for _, v := range c.a {
		s += v
	}
	return s
}

// MaxStableNu returns the largest stable ratio ν = Δ/δ for velocity c:
// the Lax–Wendroff scheme requires the Courant number |c|·ν ≤ 1 in each
// dimension, so ν_max = 1 / max{|cx|, |cy|, |cz|}. The paper (§II) runs at
// the maximum stable ν.
func MaxStableNu(c grid.Velocity) float64 {
	m := c.MaxAbs()
	if m == 0 {
		return math.Inf(1)
	}
	return 1 / m
}

// Stable reports whether the scheme is von Neumann stable for velocity c at
// ratio nu.
func Stable(c grid.Velocity, nu float64) bool {
	const eps = 1e-12
	return math.Abs(c.X)*nu <= 1+eps && math.Abs(c.Y)*nu <= 1+eps && math.Abs(c.Z)*nu <= 1+eps
}
