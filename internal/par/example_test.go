package par_test

import (
	"fmt"
	"sync/atomic"

	"repro/internal/par"
)

// Example shows the paper's §IV-D pattern: the master thread communicates
// while the rest of the team draws guided chunks of the interior loop.
func Example() {
	team := par.NewTeam(4)
	defer team.Close()

	var comm atomic.Bool
	var points atomic.Int64
	team.RunWithMaster(func() {
		comm.Store(true) // the MPI exchange would happen here
	}, 10000, 1, func(lo, hi int) {
		points.Add(int64(hi - lo))
	})

	fmt.Println("communication done:", comm.Load())
	fmt.Println("interior points computed:", points.Load())
	// Output:
	// communication done: true
	// interior points computed: 10000
}
