package impl

import "repro/internal/obs"

// stepBulk is §IV-B: distributed-memory parallelism added to the
// single-task implementation. Each step performs the whole halo exchange
// (all three serialized dimension phases) before any computation starts —
// bulk synchronous — then computes and commits locally.
func stepBulk(r *rank, _ int) {
	r.ex.exchange(0, 3)
	r.compute(obs.PhaseInterior, "whole", r.whole)
	r.commit()
}
