package telemetry

// Merge combines two window snapshots into the federated view a cluster
// gateway reports: counts and sums — windowed and lifetime — add exactly
// (so cluster totals still agree with the per-job reports they came from,
// the same invariant the per-node overlap window keeps), the max is the
// max, and rates re-derive from the merged totals. Quantiles cannot be merged exactly from
// snapshots — the underlying histograms are gone — so P50/P95/P99 are
// estimated as count-weighted means of the per-node estimates. That is
// exact when the nodes saw identical distributions (the common case under
// consistent-hash sharding of a homogeneous workload) and bounded by the
// per-node extremes otherwise; the JSON field names make no exactness
// claim beyond the per-node documents'.
//
// Snapshots are assumed to cover the same span; if they differ (nodes of
// different builds), the wider span wins and rates stay conservative.
func Merge(a, b Stats) Stats {
	totalCount, totalSum := a.TotalCount+b.TotalCount, a.TotalSum+b.TotalSum
	if a.Count == 0 || b.Count == 0 {
		// An empty window contributes its lifetime totals and nothing else.
		if a.Count == 0 {
			a = b
		}
		a.TotalCount, a.TotalSum = totalCount, totalSum
		return a
	}
	out := Stats{
		WindowSec:  a.WindowSec,
		Count:      a.Count + b.Count,
		Sum:        a.Sum + b.Sum,
		Max:        a.Max,
		TotalCount: totalCount,
		TotalSum:   totalSum,
	}
	if b.WindowSec > out.WindowSec {
		out.WindowSec = b.WindowSec
	}
	if b.Max > out.Max {
		out.Max = b.Max
	}
	out.Mean = out.Sum / float64(out.Count)
	if out.WindowSec > 0 {
		out.PerSec = float64(out.Count) / out.WindowSec
		out.SumPerSec = out.Sum / out.WindowSec
	}
	wa := float64(a.Count) / float64(out.Count)
	wb := float64(b.Count) / float64(out.Count)
	out.P50 = wa*a.P50 + wb*b.P50
	out.P95 = wa*a.P95 + wb*b.P95
	out.P99 = wa*a.P99 + wb*b.P99
	return out
}
