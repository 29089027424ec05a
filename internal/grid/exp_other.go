//go:build !amd64

package grid

// Without the amd64 vector body expRow runs its scalar loop alone.
const useExpAVX = false

func expRowAVX(dst, x2 *float64, blocks int, y2, z2, den float64) {
	panic("grid: no vector exp body on this architecture")
}
