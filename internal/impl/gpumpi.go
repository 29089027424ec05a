package impl

import (
	"repro/internal/gpusim"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/stencil"
)

// devShell is the boundary traffic between a rank's host state and its
// device domain, shared by §IV-F…I: every step the halo shell around the
// domain goes up and the domain's freshly computed outer layer comes down,
// each in one large contiguous buffer ("we need the buffers to allow
// communication between CPU and GPU to be in large contiguous chunks").
// In §IV-F/G the device domain is the whole subdomain and the host state
// is a shadow whose shell holds the data in flight between GPU and network;
// in §IV-H/I it is the block inside the CPU's box.
type devShell struct {
	interior            grid.Subdomain   // device points whose stencil reads no halo
	halo, outer         []grid.Subdomain // halo shell and outer layer, device coordinates
	haloHost, outerHost []grid.Subdomain // the same regions in the host state's coordinates
	haloBuf, outerBuf   *gpusim.Buffer
	hostHalo, hostOuter []float64
}

func newDevShell(r *rank) *devShell {
	n := r.box.Size
	g := &devShell{interior: stencil.Interior(n), outer: stencil.BoundarySlabs(n)}
	for dim := 0; dim < 3; dim++ { // the halo shell as the six Layers an exchange fills
		g.halo = append(g.halo, grid.Layer(n, 1, dim, -1, 1), grid.Layer(n, 1, dim, n.Axis(dim), 1))
	}
	g.haloHost, g.outerHost = offsetSubs(g.halo, r.box.Lo), offsetSubs(g.outer, r.box.Lo)
	g.haloBuf, g.outerBuf = r.alloc(subsVolume(g.halo)), r.alloc(subsVolume(g.outer))
	g.hostHalo, g.hostOuter = make([]float64, g.haloBuf.Len()), make([]float64, g.outerBuf.Len())
	return g
}

// packHalo stages the halo shell of the host state for its upload.
func (g *devShell) packHalo(r *rank, label string) {
	sp := r.span(obs.PhaseHaloPack, label)
	packSubs(r.cur, g.haloHost, g.hostHalo)
	sp.End()
}

// landOuter scatters the downloaded outer layer of the device domain into
// the host field f.
func (g *devShell) landOuter(r *rank, f *grid.Field, label string) {
	sp := r.span(obs.PhaseHaloUnpack, label)
	unpackSubs(f, g.outerHost, g.hostOuter)
	sp.End()
}

// prepareGPUMPI is the set-up of §IV-F and §IV-G.
func prepareGPUMPI(r *rank) { r.geom = newDevShell(r) }

// interiorKernel enqueues the interior kernel of the multi-GPU
// implementations over sub, whose stencil must not read beyond the device
// state's storage: the paper's tiling of the single-GPU kernel without the
// periodicity logic, which is the launch gpusim charges; the body is the
// shared row kernel over sub.
func (r *rank) interiorKernel(s *gpusim.Stream, sub grid.Subdomain) {
	if sub.Empty() {
		return
	}
	bx, by := min(r.o.BlockX, sub.Size.X), min(r.o.BlockY, sub.Size.Y)
	cur, nxt, op := r.st.cur, r.st.nxt, r.st.op
	r.launch(s, "interior", gpusim.StencilLaunch(sub.Size.X, sub.Size.Y, sub.Size.Z, bx, by), func() {
		op.Apply(cur, nxt, sub)
	})
}

// haloUnpackKernel enqueues a memory-only kernel that scatters a staged
// halo buffer into the current state's halo shell (the halo-thread copies
// of the paper's boundary-face kernels). It must be enqueued before the
// wall-compute kernels of the same step: wall points at edges read halo
// values belonging to other faces' slabs.
func (r *rank) haloUnpackKernel(s *gpusim.Stream, name string, subs []grid.Subdomain, buf *gpusim.Buffer) {
	cur := r.st.cur
	r.launch(s, name, r.copyLaunch(subsVolume(subs)), func() { unpackSubs(cur, subs, buf.Data()) })
}

// wallKernel enqueues a boundary-face compute kernel (§IV-F): it computes
// the listed wall slabs into the next state and, if outBuf is not nil,
// packs the freshly computed values into the outgoing buffer for the CPU
// to download for the next exchange.
func (r *rank) wallKernel(s *gpusim.Stream, name string, subs []grid.Subdomain, outBuf *gpusim.Buffer) {
	// Cost: treat the walls as one thin launch over their combined area.
	l := r.copyLaunch(subsVolume(subs))
	l.FlopsPerPoint = stencil.FlopsPerPoint
	cur, nxt, op := r.st.cur, r.st.nxt, r.st.op
	r.launch(s, name, l, func() {
		for _, sub := range subs {
			if !sub.Empty() {
				op.Apply(cur, nxt, sub)
			}
		}
		if outBuf != nil {
			packSubs(nxt, subs, outBuf.Data())
		}
	})
}

// copyLaunch builds a cost-model launch for a memory-movement kernel over
// the given number of points.
func (r *rank) copyLaunch(points int) gpusim.Launch {
	bx, by := r.o.BlockX, r.o.BlockY
	rows := max(1, (points+bx-1)/bx)
	return gpusim.Launch{
		GridX: 1, GridY: (rows + by - 1) / by,
		BlockX: bx, BlockY: by,
		ZSlabs:        1,
		Points:        points,
		BytesPerPoint: 16,
	}
}

// packSubs copies the listed subdomains of f (halo coordinates allowed)
// into buf in order; unpackSubs is its inverse.
func packSubs(f *grid.Field, subs []grid.Subdomain, buf []float64) {
	n := 0
	for _, s := range subs {
		n += f.Pack(s, buf[n:])
	}
}

func unpackSubs(f *grid.Field, subs []grid.Subdomain, buf []float64) {
	n := 0
	for _, s := range subs {
		n += f.Unpack(s, buf[n:])
	}
}

// subsVolume sums the point counts of the subdomains. The slabs of a domain
// one point thin have negative extents; they hold no points.
func subsVolume(subs []grid.Subdomain) int {
	v := 0
	for _, s := range subs {
		if !s.Empty() {
			v += s.Volume()
		}
	}
	return v
}

// offsetSubs translates subdomains by delta.
func offsetSubs(subs []grid.Subdomain, delta grid.Dims) []grid.Subdomain {
	out := make([]grid.Subdomain, len(subs))
	for i, s := range subs {
		out[i] = grid.Subdomain{
			Lo:   grid.Dims{X: s.Lo.X + delta.X, Y: s.Lo.Y + delta.Y, Z: s.Lo.Z + delta.Z},
			Size: s.Size,
		}
	}
	return out
}
