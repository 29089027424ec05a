package stencil

import (
	"fmt"
	"math"

	"repro/internal/grid"
)

// Op is a prepared stencil application bound to a coefficient set and a
// field shape. Preparing once per run mirrors the paper's constant
// coefficients ("the values of a_ijk are the same for every grid point and
// time step"). It holds the coefficients in both forms: the 27
// (flat-offset, coefficient) pairs that Point sums literally, and, for the
// row kernel, qx with the nine products wyz[(dj+1)+3(dk+1)] = qy_dj·qz_dk
// and the field's y and z strides.
type Op struct {
	offs [27]int
	w    [27]float64

	qx     [3]float64
	wyz    [9]float64
	sy, sz int
}

// NewOp prepares an Op for fields shaped like f. It panics if c is not the
// tensor product of its one-dimensional factors to tensorTol: the row
// kernel computes with the factors, so a set they do not reproduce would
// silently integrate a different scheme than Point.
func NewOp(c *Coeffs, f *grid.Field) *Op {
	op := &Op{qx: c.qx}
	var sx int
	sx, op.sy, op.sz = f.Strides()
	n := 0
	for k := -1; k <= 1; k++ {
		for j := -1; j <= 1; j++ {
			wyz := c.qy[j+1] * c.qz[k+1]
			op.wyz[(j+1)+3*(k+1)] = wyz
			for i := -1; i <= 1; i++ {
				a := c.At(i, j, k)
				if d := math.Abs(a - c.qx[i+1]*wyz); !(d <= tensorTol*math.Max(1, math.Abs(a))) {
					panic(fmt.Sprintf("stencil: coefficient (%d,%d,%d) = %v is not the product of its 1-D factors (off by %g)", i, j, k, a, d))
				}
				op.offs[n] = i*sx + j*op.sy + k*op.sz
				op.w[n] = a
				n++
			}
		}
	}
	return op
}

// tensorTol bounds |a_ijk − qx_i·qy_j·qz_k| relative to max(1, |a_ijk|):
// 64 ulp, sixteen times the most the literal Table I expressions were seen
// to differ from the product of the factors by (4 ulp over 2·10⁶ random
// velocities at up to 1.2 times the stable ν).
const tensorTol = 64 * 0x1p-52

// Point computes Eq. 2 for the single point (i, j, k): the weighted sum of
// the 27 neighbors of src, returned (not stored). It is the literal form of
// Eq. 2 and the oracle the row kernel is tested against.
func (op *Op) Point(src *grid.Field, i, j, k int) float64 {
	base := src.Idx(i, j, k)
	d := src.Data()
	var s float64
	for n := 0; n < 27; n++ {
		s += op.w[n] * d[base+op.offs[n]]
	}
	return s
}

// Apply computes Eq. 2 for every point of sub (local coordinates, must lie
// within the interior of src) reading src and writing dst. src and dst must
// have identical shape and must not alias.
func (op *Op) Apply(src, dst *grid.Field, sub grid.Subdomain) {
	op.ApplyRows(src, dst, sub, 0, Rows(sub))
}

// Rows returns the number of x-rows in sub, the iteration count for
// ApplyRows. Parallel callers collapse the outer (k, j) loops into this
// flat row index, matching the paper's collapse(2) OpenMP strategy.
func Rows(sub grid.Subdomain) int { return sub.Size.Y * sub.Size.Z }

// ApplyRows computes Eq. 2 for the x-rows of sub with flattened (k, j)
// indices in [lo, hi). Row r corresponds to k = sub.Lo.Z + r/sub.Size.Y and
// j = sub.Lo.Y + r%sub.Size.Y. Disjoint row ranges touch disjoint dst
// memory, so concurrent calls need no locking.
func (op *Op) ApplyRows(src, dst *grid.Field, sub grid.Subdomain, lo, hi int) {
	if sub.Empty() {
		return
	}
	s := src.Data()
	d := dst.Data()
	ny := sub.Size.Y
	nx := sub.Size.X
	// One division per call, not per row: (j, k) advance with r.
	j, k := lo%ny, lo/ny
	for r := lo; r < hi; r++ {
		out := dst.Idx(sub.Lo.X-2, sub.Lo.Y+j, sub.Lo.Z+k)
		op.applyRow(d[out:out+nx+2], s, src.Idx(sub.Lo.X-1, sub.Lo.Y+j-1, sub.Lo.Z+k-1))
		if j++; j == ny {
			j, k = 0, k+1
		}
	}
}

// colSum is t(x) = Σ_{dj,dk} qy_dj·qz_dk · s[x, j+dj, k+dk] for one x; the
// nine arguments are that column of the row's 3×3 bundle of source rows.
// 9 multiplications and 8 additions in two independent chains.
func colSum(w *[9]float64, a0, a1, a2, a3, a4, a5, a6, a7, a8 float64) float64 {
	return (w[0]*a0 + w[1]*a1 + w[2]*a2 + w[3]*a3 + w[4]*a4) +
		(w[5]*a5 + w[6]*a6 + w[7]*a7 + w[8]*a8)
}

// applyRow computes one x-row of Eq. 2 through the tensor product
// a_ijk = qx_i·qy_j·qz_k: out(x) = qx₋·t(x−1) + qx₀·t(x) + qx₊·t(x+1), with
// the column sums t of colSum rolling through three registers — 22 flops
// and 9 loads per point where the 27-term sum has 53 and 27.
//
// b is the flat index in s of the row's (x₀−1, j−1, k−1) corner: the nine
// source rows start there, sy and sz apart, and are re-sliced to len(dst)
// so that one index serves all ten slices and the loop carries no bounds
// check. For that dst begins two points left of the first output, at x₀−2;
// dst[0] and dst[1] are spanned, never read or written.
//
// Where the CPU has AVX and the row has m ≥ 8, the vector body
// (kernel_amd64.s) writes the first 4B outputs, B = ⌊(m−4)/4⌋, four x at a
// time; the Go loop below, seeded with t at its first output's x−2 and x−1,
// writes the 2–5 left, and shorter rows and other CPUs run it alone. Both
// give the same bits: each vector lane forms colSum's nine products and sums
// them in colSum's association, then combines t(x−1), t(x), t(x+1) in the
// loop's; VMULPD and VADDPD round every lane exactly as MULSD and ADDSD
// round a scalar; and the body uses no FMA, which would round once where
// this code rounds twice (TestApplyRowVectorMatchesGo).
//
// Nothing is carried from row to row and t has one definition, so a point's
// value depends only on its 27 inputs, never on the subdomain or row range
// it was computed in or on which body computed it: whole, thirds, slabs, box
// walls, wide-halo regions and emulated-GPU kernel bodies agree to the bit.
//
// A row pays for its two extra column sums and nine slice headers, and the
// one-point rows (m = 3) of BoundarySlabs' ±x walls never reach the vector
// body. At 128³ they cost ≈ 25 ns per point on either path, nine cache
// lines for each output (BenchmarkApply/xwall128), where whole rows cost 1.4
// with the vector body and 3.2 without it. No CPU-only schedule computes
// such rows: the overlap schedules land the x halo before any compute and
// keep their rows whole-width. Only the hybrid schedules' box walls, §IV-I's
// slabs and the emulated GPU shell still cut ±x walls that thin.
func (op *Op) applyRow(dst, s []float64, b int) {
	m := len(dst)
	if m < 3 { // no output
		return
	}
	sy, sz := op.sy, op.sz
	w := &op.wyz
	r0, r1, r2 := s[b:][:m], s[b+sy:][:m], s[b+2*sy:][:m]
	b += sz
	r3, r4, r5 := s[b:][:m], s[b+sy:][:m], s[b+2*sy:][:m]
	b += sz
	r6, r7, r8 := s[b:][:m], s[b+sy:][:m], s[b+2*sy:][:m]
	i := 2
	if useAVX && m >= 8 {
		blocks := (m - 4) / 4
		applyRowAVX(&dst[0], &r0[0], sy, sz, blocks, w, &op.qx)
		i += 4 * blocks
	}
	tm := colSum(w, r0[i-2], r1[i-2], r2[i-2], r3[i-2], r4[i-2], r5[i-2], r6[i-2], r7[i-2], r8[i-2])
	t0 := colSum(w, r0[i-1], r1[i-1], r2[i-1], r3[i-1], r4[i-1], r5[i-1], r6[i-1], r7[i-1], r8[i-1])
	qm, q0, qp := op.qx[0], op.qx[1], op.qx[2]
	for ; i < m; i++ {
		tp := colSum(w, r0[i], r1[i], r2[i], r3[i], r4[i], r5[i], r6[i], r7[i], r8[i])
		dst[i] = qm*tm + q0*t0 + qp*tp
		tm, t0 = t0, tp
	}
}

// Interior returns the subdomain of points of an n-point local domain whose
// stencil touches no halo point: the domain shrunk by the stencil halo
// width (1) on every side. If the domain is too thin the result is empty,
// with every short extent clamped to 0 as grid.Intersect clamps, so that its
// Volume is 0: two negative extents would multiply to a positive count.
func Interior(n grid.Dims) grid.Subdomain {
	return grid.Subdomain{
		Lo:   grid.Dims{X: 1, Y: 1, Z: 1},
		Size: grid.Dims{X: max(n.X-2, 0), Y: max(n.Y-2, 0), Z: max(n.Z-2, 0)},
	}
}

// BoundarySlabs returns the six disjoint slabs of boundary points — points
// whose stencil reads at least one halo point — of an n-point local domain,
// ordered -z, +z, -y, +y, -x, +x. Together with Interior(n) they tile the
// domain. These are the points the paper's overlap implementations compute
// after communication completes. Here §IV-I's slabs and the GPU shell of
// the multi-GPU schedules are cut this way; §IV-C and §IV-D land the x halo
// first and keep at most the ±z and ±y slabs, a prefix of these.
func BoundarySlabs(n grid.Dims) []grid.Subdomain {
	b := grid.BoxSplit{Local: n, T: 1}
	return b.Walls()
}

// InteriorThirds splits the interior of an n-point local domain into three
// slabs along z, as equal as possible: the paper's §IV-C computes the first
// third within the x exchange, the second within y, the last within z. No
// schedule here cuts its interior this way (internal/impl's newCut says
// why); only the benchmark's kernel probe reads it.
func InteriorThirds(n grid.Dims) [3]grid.Subdomain {
	in := Interior(n)
	var out [3]grid.Subdomain
	base := in.Size.Z / 3
	rem := in.Size.Z % 3
	lo := in.Lo.Z
	for t := 0; t < 3; t++ {
		sz := base
		if t < rem {
			sz++
		}
		out[t] = grid.Subdomain{
			Lo:   grid.Dims{X: in.Lo.X, Y: in.Lo.Y, Z: lo},
			Size: grid.Dims{X: in.Size.X, Y: in.Size.Y, Z: sz},
		}
		lo += sz
	}
	return out
}

// Whole returns the full local domain as a subdomain.
func Whole(n grid.Dims) grid.Subdomain {
	return grid.Subdomain{Size: n}
}
