package tune_test

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/machine"
	"repro/internal/tune"
)

// Example tunes the paper's winning implementation on one Yona node, the
// search §VI says future systems will need.
func Example() {
	yona := machine.Yona()
	space := tune.DefaultSpace(yona, core.HybridOverlap)
	r, err := tune.Exhaustive(yona, core.HybridOverlap, 12, space)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println("one task per node:", yona.Node.Cores()/r.Best.Threads == 1)
	fmt.Println("thin CPU veneer:", r.Best.Thickness <= 3)
	fmt.Println("warp-width blocks:", r.Best.BlockX == 32)
	// Output:
	// one task per node: true
	// thin CPU veneer: true
	// warp-width blocks: true
}
