package stencil

// applyRowAVX is applyRow's vector body (kernel_amd64.s): for each of blocks
// ≥ 1 blocks k it writes dst[4k+2 … 4k+5] from the column sums t(4k … 4k+7)
// of the nine rows src, src+sy, src+2sy, src+sz, …, src+2sz+2sy (strides in
// elements), exactly as the Go loop would.
//
//go:noescape
func applyRowAVX(dst, src *float64, sy, sz, blocks int, w *[9]float64, q *[3]float64)

func cpuHasAVX() bool

// useAVX selects the vector body; the differential test turns it off to run
// the Go oracle on the same inputs.
var useAVX = cpuHasAVX()
