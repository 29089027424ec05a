package stencil

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/grid"
)

func TestTensorIdentity(t *testing.T) {
	// The literal Table I expressions must equal the tensor product of
	// one-dimensional Lax–Wendroff stencils for any velocity and ν.
	prop := func(cx, cy, cz, nuRaw float64) bool {
		c := grid.Velocity{X: clampUnit(cx), Y: clampUnit(cy), Z: clampUnit(cz)}
		nu := math.Abs(clampUnit(nuRaw))
		a := TableI(c, nu)
		b := TensorProduct(c, nu)
		for k := -1; k <= 1; k++ {
			for j := -1; j <= 1; j++ {
				for i := -1; i <= 1; i++ {
					if d := math.Abs(a.At(i, j, k) - b.At(i, j, k)); d > 1e-14 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func clampUnit(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0.5
	}
	return math.Mod(x, 1)
}

func TestCoeffSumIsOne(t *testing.T) {
	// Consistency: a constant field must be a fixed point, so Σ a_ijk = 1.
	prop := func(cx, cy, cz, nuRaw float64) bool {
		c := grid.Velocity{X: clampUnit(cx), Y: clampUnit(cy), Z: clampUnit(cz)}
		nu := math.Abs(clampUnit(nuRaw))
		return math.Abs(TableI(c, nu).Sum()-1) < 1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLW1DKnownValues(t *testing.T) {
	// σ = 1 gives the pure-shift stencil (1, 0, 0).
	qm1, q0, qp1 := LW1D(1)
	if qm1 != 1 || q0 != 0 || qp1 != 0 {
		t.Fatalf("LW1D(1) = (%v,%v,%v), want (1,0,0)", qm1, q0, qp1)
	}
	// σ = 0 gives identity (0, 1, 0).
	qm1, q0, qp1 = LW1D(0)
	if qm1 != 0 || q0 != 1 || qp1 != 0 {
		t.Fatalf("LW1D(0) = (%v,%v,%v), want (0,1,0)", qm1, q0, qp1)
	}
	// σ = -1 shifts the other way.
	qm1, q0, qp1 = LW1D(-1)
	if qm1 != 0 || q0 != 0 || qp1 != 1 {
		t.Fatalf("LW1D(-1) = (%v,%v,%v), want (0,0,1)", qm1, q0, qp1)
	}
}

func TestCoeffsAtAndFlat(t *testing.T) {
	c := grid.Velocity{X: 0.3, Y: 0.2, Z: 0.1}
	a := TableI(c, 1)
	flat := a.Flat()
	n := 0
	for k := -1; k <= 1; k++ {
		for j := -1; j <= 1; j++ {
			for i := -1; i <= 1; i++ {
				if flat[n] != a.At(i, j, k) {
					t.Fatalf("Flat[%d] != At(%d,%d,%d)", n, i, j, k)
				}
				n++
			}
		}
	}
}

func TestMaxStableNu(t *testing.T) {
	c := grid.Velocity{X: 0.5, Y: 0.25, Z: 0.1}
	if got := MaxStableNu(c); got != 2 {
		t.Fatalf("MaxStableNu = %v, want 2", got)
	}
	if !Stable(c, 2) {
		t.Fatal("max stable nu reported unstable")
	}
	if Stable(c, 2.1) {
		t.Fatal("super-critical nu reported stable")
	}
	if !math.IsInf(MaxStableNu(grid.Velocity{}), 1) {
		t.Fatal("zero velocity should have infinite stable nu")
	}
}

func TestIdx27Panics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("idx27(2,0,0) did not panic")
		}
	}()
	idx27(2, 0, 0)
}

func TestNewOpRejectsNonTensorProduct(t *testing.T) {
	c := TableI(grid.Velocity{X: 1, Y: 0.5, Z: 0.25}, 1-3e-7)
	c.a[idx27(1, 0, -1)] += 1e-12
	defer func() {
		if recover() == nil {
			t.Fatal("NewOp accepted a coefficient set that is not a tensor product")
		}
	}()
	NewOp(c, grid.NewField(grid.Uniform(2), 1))
}
