package main

import (
	"fmt"
	"sort"
)

// metricDef declares one benchmark metric. BENCHMARK.json is generated from
// these tables (-spec) and a test keeps the two in step.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

const (
	higher = "higher"
	lower  = "lower"
)

// timedKinds are the schedules whose time to solution every workload
// reports end to end, by their metric suffix: the ones that run on the
// host's CPUs. The emulated-GPU schedules spend their time in the emulator,
// which the host's changes of speed act on differently, so that no yardstick
// fits both; they are timed per layer, in the traced ladder.
var timedKinds = []string{"single", "bulk", "nonblocking", "threaded", "wide_halo"}

// allKinds adds the schedules only the traced run executes.
var allKinds = []string{"single", "bulk", "nonblocking", "threaded", "gpu", "gpu_bulk", "gpu_streams", "hybrid_bulk", "hybrid_overlap", "wide_halo"}

// mpiKinds are the schedules that exchange halos between tasks.
var mpiKinds = []string{"bulk", "nonblocking", "threaded", "gpu_bulk", "gpu_streams", "hybrid_bulk", "hybrid_overlap", "wide_halo"}

// endToEnd lists the metrics a user of the system sees. Every workload
// reports every one of them, each measured on the workload's own path and
// problem size (bench/README.md has the table). A bound is three times the
// widest quartile spread ten runs of the metric showed on the reference host,
// rounded up, and at most the 25 % the pipeline allows.
func endToEnd() []metricDef {
	out := []metricDef{{Name: "setup_s", Unit: "s", Better: lower, Bound: 0.25}}
	for _, k := range timedKinds {
		out = append(out, metricDef{Name: "mlups." + k, Unit: "MLUPS", Better: higher, Bound: 0.25})
	}
	return append(out,
		metricDef{Name: "job_ms_p50", Unit: "ms", Better: lower, Bound: 0.25},
		metricDef{Name: "jobs_per_s", Unit: "1/s", Better: higher, Bound: 0.15},
		metricDef{Name: "rss_mb", Unit: "MB", Better: lower, Bound: 0.25},
	)
}

// perLayer lists the outside-in probes of every module a request crosses.
func perLayer() []metricDef {
	var out []metricDef
	add := func(better, unit string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	each := func(prefix string, kinds []string) []string {
		names := make([]string, len(kinds))
		for i, k := range kinds {
			names[i] = prefix + k
		}
		return names
	}

	add(higher, "GB/s", "host.copy_gb_s", "host.triad_gb_s")
	add(lower, "ms", "host.spin_ms")
	add(higher, "MLUPS", "host.ref_mlups")

	add(higher, "GF", "stencil.apply_gf.n16", "stencil.apply_gf.n64", "stencil.apply_gf.n128")
	add(lower, "ns", "stencil.whole_ns_per_pt.n128", "stencil.slabs_ns_per_pt.n128", "stencil.thirds_ns_per_pt.n128")
	add(higher, "x", "stencil.rows_t2_speedup.n128")
	add(higher, "frac", "stencil.roofline_frac.n128")

	add(higher, "GB/s", "grid.pack_gb_s.x", "grid.pack_gb_s.y", "grid.pack_gb_s.z",
		"grid.unpack_gb_s.x", "grid.unpack_gb_s.y", "grid.unpack_gb_s.z")
	add(lower, "us", "grid.periodic_halo_us.n16", "grid.periodic_halo_us.n128")
	add(higher, "GB/s", "grid.copy_interior_gb_s.n128")
	add(lower, "ns", "grid.fill_ns_per_pt", "grid.norms_ns_per_pt")

	add(lower, "us", "mpi.pingpong_us.8B", "mpi.pingpong_us.128KB")
	add(lower, "count", "mpi.allocs_per_msg")
	add(lower, "us", "mpi.barrier_us.t2")
	add(lower, "ms", "mpi.gather_ms.n128_t2")
	add(lower, "us", "mpi.world_start_us.t2")
	add(lower, "count", each("mpi.msgs_per_step.", mpiKinds)...)
	add(lower, "B", "mpi.bytes_per_step.bulk", "mpi.bytes_per_step.wide_halo")

	add(lower, "us", "par.parallel_for_us.t2", "par.run_with_master_us.t2", "par.team_start_us.t2")

	add(lower, "us", "gpusim.launch_us")
	add(lower, "ns", "gpusim.kernel_ns_per_pt.n64")
	add(higher, "GB/s", "gpusim.memcpy_gb_s")
	add(higher, "GF", "gpusim.sim_gf.gpu_bulk", "gpusim.sim_gf.gpu_streams",
		"gpusim.sim_gf.hybrid_bulk", "gpusim.sim_gf.hybrid_overlap")

	add(lower, "ms", each("impl.step_ms.", allKinds)...)
	add(lower, "ms", each("impl.overhead_ms.", allKinds)...)
	add(lower, "count", each("impl.allocs_per_step.", allKinds)...)
	add(lower, "MB", "impl.alloc_mb_per_run.single", "impl.alloc_mb_per_run.bulk",
		"impl.alloc_mb_per_run.gpu_streams", "impl.alloc_mb_per_run.hybrid_overlap")
	add(lower, "ms", "impl.step_ms.single_t1")
	add(higher, "frac", "impl.par_eff.single")
	add(lower, "frac", "impl.kernel_share.bulk")
	add(higher, "x", "impl.overlap_ratio.nonblocking", "impl.overlap_ratio.threaded",
		"impl.overlap_ratio.gpu_streams", "impl.overlap_ratio.hybrid_overlap")
	add(higher, "frac", "impl.hidden_frac.nonblocking", "impl.hidden_frac.threaded",
		"impl.hidden_frac.gpu_streams", "impl.hidden_frac.hybrid_overlap")

	add(higher, "MB/s", "checkpoint.save_mb_s", "checkpoint.load_mb_s")
	add(lower, "ms", "checkpoint.savefile_ms")
	add(lower, "B", "checkpoint.bytes")

	add(lower, "s", "session.session_s")
	add(lower, "ms", "session.segment_ms_p50")
	add(lower, "x", "session.durability_tax")
	add(lower, "ms", "session.fork_ms_p50", "session.recover_ms")
	add(lower, "us", "session.status_us_p50")

	add(lower, "us", "service.submit_direct_us", "service.http_overhead_us")
	add(lower, "ms", "service.cached_ms_p50", "service.queue_wait_ms_p50", "service.exec_ms_p50",
		"service.run_direct_ms_p50")
	add(lower, "x", "service.exec_over_run")
	add(lower, "ms", "service.predict_uncached_ms_p50", "service.job_ms_p90", "service.job_ms_p99")
	add(higher, "frac", "service.cache_hit_ratio")
	add(lower, "frac", "service.shed_ratio")

	add(lower, "us", "cluster.hop_us_p50")
	add(lower, "ms", "cluster.gw_cached_ms_p50", "cluster.gw_job_ms_p50")
	add(higher, "1/s", "cluster.gw_jobs_per_s")
	add(higher, "frac", "cluster.peek_hit_ratio")
	add(lower, "count", "cluster.failovers")

	add(lower, "ns", "obs.span_ns")
	add(lower, "count", "obs.spans_per_job")
	add(lower, "ms", "obs.traced_job_ms_p50")
	add(lower, "frac", "obs.trace_overhead_frac")

	add(lower, "us", "perf.evaluate_us")
	add(lower, "frac", "bench.trace_overhead_frac")
	return out
}

// sample is one reported metric of one run: the value (a median where the
// run took several samples) with the spread it was taken from.
type sample struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// N, the quartiles and the tail describe the samples inside the run:
	// Tail is their TailP-th percentile, the highest with at least ten
	// samples beyond it. They are printed for a reader and left out of the
	// result line the driver parses.
	N     int     `json:"-"`
	Q1    float64 `json:"-"`
	Q3    float64 `json:"-"`
	TailP float64 `json:"-"`
	Tail  float64 `json:"-"`
}

// metricSet collects the metrics of one run by name.
type metricSet map[string]sample

// put records a single measured value.
func (m metricSet) put(name string, v float64) {
	m[name] = sample{Value: v, N: 1, Q1: v, Q3: v, TailP: 50, Tail: v}
}

// putSamples records the median of xs with its quartiles.
func (m metricSet) putSamples(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	q1, med, q3 := quartiles(xs)
	p := tailPercentile(len(xs))
	m[name] = sample{Value: med, N: len(xs), Q1: q1, Q3: q3, TailP: p, Tail: percentile(xs, p)}
}

// finish keeps exactly the metrics of defs, fills in their units, and
// reports any the run failed to measure.
func (m metricSet) finish(defs []metricDef) (metricSet, error) {
	out := metricSet{}
	var missing []string
	for _, d := range defs {
		s, ok := m[d.Name]
		if !ok {
			missing = append(missing, d.Name)
			continue
		}
		s.Unit = d.Unit
		out[d.Name] = s
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return nil, fmt.Errorf("metrics not measured: %v", missing)
	}
	return out, nil
}
