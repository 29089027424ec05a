// Autotune: the paper's conclusion calls out the need to tune the number
// of OpenMP threads per MPI task and the CPU box thickness, noting that
// the best settings shift with scale (§VI). This example implements the
// simple exhaustive tuner the paper stops short of: for each machine and
// core count it searches the tuning space of the full-overlap hybrid
// implementation with the performance model and reports how the optimum
// moves — threads per task up with scale, box thickness down.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/harness"
	"repro/internal/tune"
)

func main() {
	for _, name := range []string{"Lens", "Yona"} {
		m, err := advect.MachineByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s (1 GPU per %d cores): exhaustive tuner\n", m.Name, m.CoresPerGPU())
		sched, err := tune.BuildSchedule(m, advect.HybridOverlap, harness.CoreCounts(m))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%8s  %8s  %10s  %9s  %9s  %8s\n", "cores", "threads", "tasks/node", "thickness", "block", "GF")
		for _, e := range sched.Entries {
			fmt.Printf("%8d  %8d  %10d  %9d  %6dx%-2d  %8.1f\n",
				e.Cores, e.Point.Threads, m.Node.Cores()/e.Point.Threads,
				e.Point.Thickness, e.Point.BlockX, e.Point.BlockY, e.GF)
		}
		fmt.Println()
	}

	// The same search for the CPU machines: the paper's other tuning
	// axis, threads per task for the bulk-synchronous implementation.
	for _, name := range []string{"JaguarPF", "Hopper II"} {
		m, err := advect.MachineByName(name)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s: best threads/task for bulk-synchronous MPI\n", m.Name)
		for _, cores := range harness.CoreCounts(m) {
			bestGF, bestT := 0.0, 0
			for _, t := range m.ThreadChoices {
				if cores%t != 0 {
					continue
				}
				e, err := advect.Predict(advect.PredictConfig{
					M: m, Kind: advect.BulkSync, Cores: cores, Threads: t,
				})
				if err == nil && e.GF > bestGF {
					bestGF, bestT = e.GF, t
				}
			}
			fmt.Printf("  %6d cores -> %2d threads/task (%.0f GF)\n", cores, bestT, bestGF)
		}
		fmt.Println()
	}
}
