package mpi_test

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/mpi"
)

// Example shows the halo-exchange idiom the paper's implementations use:
// post nonblocking receives first, send eagerly, then wait — here on a
// two-rank ring, with persistent requests that lend their slots.
func Example() {
	w := mpi.NewWorld(2)
	var mu sync.Mutex
	var lines []string
	w.Run(func(c *mpi.Comm) {
		peer := 1 - c.Rank()
		recv, send := c.RecvInit(peer, 0, 1), c.SendInit(peer, 0, 1)
		recv.Start()
		buf := send.Wait() // a slot of the peer's mailbox, lent to fill
		buf[0] = float64(c.Rank() * 10)
		send.Start()
		got := recv.Wait() // the delivered slot, valid until recv's next Start
		mu.Lock()
		lines = append(lines, fmt.Sprintf("rank %d received %v", c.Rank(), got[0]))
		mu.Unlock()
	})
	sort.Strings(lines)
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// rank 0 received 10
	// rank 1 received 0
}

// ExampleComm_Allreduce computes a global sum the way the distributed norm
// verification does.
func ExampleComm_Allreduce() {
	w := mpi.NewWorld(4)
	var once sync.Once
	w.Run(func(c *mpi.Comm) {
		vals := []float64{float64(c.Rank() + 1)}
		c.Allreduce(mpi.OpSum, vals)
		once.Do(func() { fmt.Println("sum over ranks:", vals[0]) })
	})
	// Output:
	// sum over ranks: 10
}
