//go:build !amd64

package stencil

// Without the amd64 vector body applyRow runs its Go loop alone.
const useAVX = false

func applyRowAVX(dst, src *float64, sy, sz, blocks int, w *[9]float64, q *[3]float64) {
	panic("stencil: no vector row kernel on this architecture")
}
