package grid

import "math"

// expRowAVX is expRow's vector body (exp_amd64.s): for each of blocks ≥ 1
// blocks k it writes dst[4k … 4k+3] = math.Exp(-((x2+y2)+z2)/den) of
// x2[4k … 4k+3], bit for bit where math.Exp takes its FMA path.
//
//go:noescape
func expRowAVX(dst, x2 *float64, blocks int, y2, z2, den float64)

func cpuHasAVX2FMA() bool

// expProbe holds arguments x at each of which math.Exp(-x) rounds
// differently on its FMA path and on its plain path.
var expProbe = [4]float64{0.14, 0.17, 0.19, 0.2}

// useExpAVX selects the vector body: the CPU runs it, and math.Exp takes
// the FMA path the body copies — which the probe tells apart from the plain
// path a GODEBUG setting can force.
var useExpAVX = cpuHasAVX2FMA() && expProbeAgrees()

func expProbeAgrees() bool {
	var got [4]float64
	expRowAVX(&got[0], &expProbe[0], 1, 0, 0, 1)
	for i, x := range expProbe {
		if math.Float64bits(got[i]) != math.Float64bits(math.Exp(-x)) {
			return false
		}
	}
	return true
}
