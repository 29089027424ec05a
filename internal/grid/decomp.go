package grid

import (
	"fmt"
	"sort"
)

// Decomp is the paper's task decomposition (§IV-B): the global grid is split
// among P.X × P.Y × P.Z tasks with subdomains as close to the same size and
// as close to cubic as possible, no task empty, and — when the split cannot
// be perfectly cubic — subdomains largest in x and smallest in z for memory
// locality. Subdomains are aligned in each dimension, so every task has 26
// logical neighbors (some of which may be the task itself for small task
// counts).
type Decomp struct {
	N Dims // global grid extents
	P Dims // task-grid extents, P.X ≤ P.Y ≤ P.Z
}

// NewDecomp is Decompose for callers that have already validated ntasks
// against the grid; it panics where Decompose returns an error.
func NewDecomp(n Dims, ntasks int) Decomp {
	d, err := Decompose(n, ntasks)
	if err != nil {
		panic(err.Error())
	}
	return d
}

// Decompose chooses the task-grid factorization of ntasks that minimizes the
// largest subdomain's communication surface, subject to the paper's
// constraints. It fails if ntasks is out of range or has no factorization
// that fits the grid (a prime factor larger than every extent).
func Decompose(n Dims, ntasks int) (Decomp, error) {
	if ntasks <= 0 {
		return Decomp{}, fmt.Errorf("grid: bad task count %d", ntasks)
	}
	if ntasks > n.Volume() {
		return Decomp{}, fmt.Errorf("grid: %d tasks exceed %d grid points", ntasks, n.Volume())
	}
	best := Dims{}
	bestScore := -1
	for _, t := range factorTriples(ntasks) {
		for _, p := range permute3(t) {
			px, py, pz := p[0], p[1], p[2]
			if px > n.X || py > n.Y || pz > n.Z {
				continue
			}
			// Largest subdomain uses ceiling division in each dimension.
			sub := Dims{ceilDiv(n.X, px), ceilDiv(n.Y, py), ceilDiv(n.Z, pz)}
			score := 2 * (sub.X*sub.Y + sub.Y*sub.Z + sub.X*sub.Z)
			cand := Dims{px, py, pz}
			// Ties go to the paper's ordering: fewest cuts in x, most in
			// z, so the subdomain is largest in x and smallest in z.
			if bestScore < 0 || score < bestScore ||
				(score == bestScore && lessAscending(cand, best)) {
				bestScore = score
				best = cand
			}
		}
	}
	if bestScore < 0 {
		return Decomp{}, fmt.Errorf("grid: no feasible decomposition of %v into %d tasks", n, ntasks)
	}
	return Decomp{N: n, P: best}, nil
}

// Tasks returns the total number of tasks.
func (d Decomp) Tasks() int { return d.P.Volume() }

// Coords returns the task-grid coordinates of rank. Ranks are x-fastest:
// rank = cx + P.X*(cy + P.Y*cz).
func (d Decomp) Coords(rank int) Dims {
	if rank < 0 || rank >= d.Tasks() {
		panic(fmt.Sprintf("grid: rank %d out of range [0,%d)", rank, d.Tasks()))
	}
	cx := rank % d.P.X
	cy := (rank / d.P.X) % d.P.Y
	cz := rank / (d.P.X * d.P.Y)
	return Dims{cx, cy, cz}
}

// Rank is the inverse of Coords.
func (d Decomp) Rank(c Dims) int {
	return c.X + d.P.X*(c.Y+d.P.Y*c.Z)
}

// Sub returns the global subdomain owned by rank. Within each dimension the
// remainder points go to the lowest task coordinates, so the largest
// subdomain is at most one point larger than the smallest in each dimension.
func (d Decomp) Sub(rank int) Subdomain {
	c := d.Coords(rank)
	lox, nx := split1(d.N.X, d.P.X, c.X)
	loy, ny := split1(d.N.Y, d.P.Y, c.Y)
	loz, nz := split1(d.N.Z, d.P.Z, c.Z)
	return Subdomain{Lo: Dims{lox, loy, loz}, Size: Dims{nx, ny, nz}}
}

// Neighbor returns the rank of the periodic neighbor of rank in dimension
// dim (0,1,2) on side dir (-1 or +1). A task can be its own neighbor when
// the task grid has extent 1 (or 2, for the two sides) in that dimension.
func (d Decomp) Neighbor(rank, dim, dir int) int {
	if dir != -1 && dir != 1 {
		panic(fmt.Sprintf("grid: bad direction %d", dir))
	}
	c := d.Coords(rank)
	p := d.P.Axis(dim)
	v := ((c.Axis(dim)+dir)%p + p) % p
	return d.Rank(c.WithAxis(dim, v))
}

// split1 divides n points among p parts and returns the offset and size of
// part i, giving the n%p remainder points to the lowest-indexed parts.
func split1(n, p, i int) (lo, size int) {
	base := n / p
	rem := n % p
	if i < rem {
		return i * (base + 1), base + 1
	}
	return rem*(base+1) + (i-rem)*base, base
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// permute3 returns the distinct permutations of a triple.
func permute3(t [3]int) [][3]int {
	idx := [][3]int{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	var out [][3]int
	seen := map[[3]int]bool{}
	for _, p := range idx {
		c := [3]int{t[p[0]], t[p[1]], t[p[2]]}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	return out
}

// lessAscending prefers the candidate closer to ascending (px ≤ py ≤ pz)
// order: lexicographically smaller task grids cut x less.
func lessAscending(a, b Dims) bool {
	if a.X != b.X {
		return a.X < b.X
	}
	if a.Y != b.Y {
		return a.Y < b.Y
	}
	return a.Z < b.Z
}

// factorTriples enumerates every ordered-ascending triple (a ≤ b ≤ c) with
// a*b*c = n.
func factorTriples(n int) [][3]int {
	var out [][3]int
	for a := 1; a*a*a <= n; a++ {
		if n%a != 0 {
			continue
		}
		m := n / a
		for b := a; b*b <= m; b++ {
			if m%b != 0 {
				continue
			}
			c := m / b
			out = append(out, [3]int{a, b, c})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}
