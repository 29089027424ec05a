// Command report regenerates a Markdown reproduction report from the
// current models: the §V-E calibration anchors, every figure's data as
// Markdown tables, the Figure 2 line counts, and the extension
// experiments. EXPERIMENTS.md in this repository is the curated version of
// this output; run `report > /tmp/report.md` after changing any model or
// calibration constant to see what moved.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/harness"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/perf"
	"repro/internal/session"
	"repro/internal/stats"
)

func main() {
	out := flag.String("o", "", "write to this file instead of stdout")
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "report:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}

	fmt.Fprintln(w, "# Reproduction report (generated)")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Regenerated from the current models by `go run ./cmd/report`.")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Section V-E calibration anchors")
	fmt.Fprintln(w)
	if t, err := harness.SectionVE(); err == nil {
		writeMarkdown(w, t)
	}
	fmt.Fprintln(w)

	figures := []struct {
		id, title string
	}{
		{"fig3", "Figure 3 — JaguarPF, best GF per implementation"},
		{"fig4", "Figure 4 — Hopper II, best GF per implementation"},
		{"fig5", "Figure 5 — JaguarPF, threads-per-task sweep"},
		{"fig6", "Figure 6 — Hopper II, threads-per-task sweep"},
		{"fig7", "Figure 7 — Lens GPU block sizes"},
		{"fig8", "Figure 8 — Yona GPU block sizes"},
		{"fig9", "Figure 9 — Lens, best GF per implementation"},
		{"fig10", "Figure 10 — Yona, best GF per implementation"},
		{"fig11", "Figure 11 — Lens hybrid-overlap combos"},
		{"fig12", "Figure 12 — Yona hybrid-overlap combos"},
	}
	for _, f := range figures {
		series, xName, ok := harness.Data(f.id)
		if !ok {
			continue
		}
		fmt.Fprintf(w, "## %s\n\n", f.title)
		writeMarkdown(w, stats.SeriesTable(xName, series))
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "## Figure 2 — lines of code")
	fmt.Fprintln(w)
	if e, err := harness.ByID("fig2"); err == nil {
		var sb strings.Builder
		if err := e.Run(&sb); err == nil {
			fmt.Fprintln(w, "```")
			fmt.Fprint(w, sb.String())
			fmt.Fprintln(w, "```")
		}
	}
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Extension experiments")
	fmt.Fprintln(w)
	for _, e := range harness.Extensions() {
		fmt.Fprintf(w, "### %s — %s\n\n", e.ID, e.Title)
		var sb strings.Builder
		if err := e.Run(&sb); err != nil {
			fmt.Fprintf(w, "error: %v\n\n", err)
			continue
		}
		fmt.Fprintln(w, "```")
		fmt.Fprint(w, sb.String())
		fmt.Fprintln(w, "```")
		fmt.Fprintln(w)
	}

	fmt.Fprintln(w, "## Observability")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The figures above are model-driven; the functional runs behind them")
	fmt.Fprintln(w, "can be inspected span by span. `cmd/advect -trace` records per-rank")
	fmt.Fprintln(w, "phase spans and prints the overlap-efficiency report together with the")
	fmt.Fprintln(w, "per-rank load-imbalance/straggler report (max/mean busy time, the")
	fmt.Fprintln(w, "straggler's critical-path share, and the per-phase spread that names")
	fmt.Fprintln(w, "why it straggles); the written Chrome trace opens in ui.perfetto.dev.")
	fmt.Fprintln(w, "The `advectd` daemon exposes the same spans per traced job at")
	fmt.Fprintln(w, "`GET /v1/jobs/{id}/trace` — stitched with the request lifecycle —")
	fmt.Fprintln(w, "plus rolling-window telemetry at `GET /v1/stats` and a live SSE feed")
	fmt.Fprintln(w, "at `GET /v1/stream`. See README \"Live telemetry\" and \"Observability\".")
	fmt.Fprintln(w)

	fmt.Fprint(w, stepAccount)
	fmt.Fprint(w, runAccount)

	fmt.Fprintln(w, "## Scaling out the serving layer")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "The paper's discipline — keep communication concurrent with compute so")
	fmt.Fprintln(w, "neither ever waits — reappears one level up in `cmd/advectgw`")
	fmt.Fprintln(w, "(`internal/cluster`): a gateway shards jobs across N `advectd` nodes by")
	fmt.Fprintln(w, "request fingerprint on a consistent-hash ring, and all coordination")
	fmt.Fprintln(w, "traffic (health probes, drain handoffs, crash reroutes, federated stats")
	fmt.Fprintln(w, "and SSE fan-in) runs concurrently with job execution, never pausing it.")
	fmt.Fprintln(w, "Adding a node moves only ~1/N of the key space, and moved keys are")
	fmt.Fprintln(w, "served by peeking the sibling cache and seeding the new owner rather")
	fmt.Fprintln(w, "than recomputing; a killed node's in-flight jobs are re-submitted to")
	fmt.Fprintln(w, "the survivors exactly once per fingerprint. All of this is asserted by")
	fmt.Fprintln(w, "a 3-node kill-one-mid-run e2e under the race detector, and the ring")
	fmt.Fprintln(w, "lookup on the submit path is allocation-free and sub-microsecond")
	fmt.Fprintln(w, "(bounded in CI by `BENCH_guards.json`). See README \"Running a cluster\".")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Resumable sessions & speculative sweep warming")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Long trajectories run as *sessions* (`internal/session`, served at")
	fmt.Fprintln(w, "`POST /v1/sessions`): the run executes as a chain of checkpointed")
	fmt.Fprintln(w, "segments, each segment ending in a durable, versioned, CRC-guarded")
	fmt.Fprintln(w, "checkpoint (`internal/checkpoint`), so a killed daemon resumes from")
	fmt.Fprintln(w, "the last segment boundary on restart and finishes bitwise-identical")
	fmt.Fprintln(w, "to an uninterrupted run (e2e-asserted by field hash). Retained")
	fmt.Fprintln(w, "checkpoints double as fork points: any kept step can seed a child")
	fmt.Fprintln(w, "session with mutated options. Behind the gateway, checkpoints")
	fmt.Fprintln(w, "replicate on the session-sync sweep and a dead owner's sessions are")
	fmt.Fprintln(w, "re-homed onto survivors under the same trace id.")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Interactive submissions feed a sweep detector: when one numeric")
	fmt.Fprintln(w, "parameter advances arithmetically (a `cmd/sweep` scan, a user")
	fmt.Fprintln(w, "bisecting), the predicted next points are pre-executed on idle")
	fmt.Fprintln(w, "workers at background priority — shed first under load — so the")
	fmt.Fprintln(w, "sweep's later points are cache hits before they are asked for. The")
	fmt.Fprintln(w, "table below replays an 8-point sweep through the real detector")
	fmt.Fprintln(w, "(history 3, predict 2, background execution assumed to keep up):")
	fmt.Fprintln(w)
	warm, hits := warmerTable()
	writeMarkdown(w, warm)
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%d of 8 points served from the warm cache — the detector needs the\n", hits)
	fmt.Fprintln(w, "first three points to establish the progression, then stays ahead of")
	fmt.Fprintln(w, "it. The live counters (observed, predictions, warmed, shed, hits)")
	fmt.Fprintln(w, "are on `GET /v1/stats` under `\"warmer\"`.")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Model-vs-measured drift")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Each overlap kind's analytic expectation doubles as a production")
	fmt.Fprintln(w, "alarm. `perf.ExpectedHiddenFraction` predicts the share of the")
	fmt.Fprintln(w, "bulk-synchronous exchange cost an overlap schedule should hide —")
	fmt.Fprintln(w, "the step time saved over the kind's §IV counterpart, as a fraction")
	fmt.Fprintln(w, "of the counterpart's exchange components — and every traced run")
	fmt.Fprintln(w, "measures the same quantity as the mpi/compute pair of its overlap")
	fmt.Fprintln(w, "report. The daemon's anomaly engine (`internal/flight`) compares the")
	fmt.Fprintln(w, "two per finished job and fires a `model-drift` anomaly — freezing a")
	fmt.Fprintln(w, "flight-recorder snapshot for `GET /v1/debug/bundle` — when the gap")
	fmt.Fprintln(w, "leaves the tolerance band (default 0.35, `-drift` on `advectd`).")
	fmt.Fprintln(w, "Predicted hidden fractions on Yona, 48³ points per task:")
	fmt.Fprintln(w)
	writeMarkdown(w, driftTable())
	fmt.Fprintln(w)
	fmt.Fprintln(w, "A bulk-synchronous kind is its own counterpart and is predicted to")
	fmt.Fprintln(w, "hide nothing, so a deployment that expects `hybrid-overlap` but is")
	fmt.Fprintln(w, "handed bulk-sync runs drifts by the full predicted fraction and")
	fmt.Fprintln(w, "alarms immediately (this exact scenario is the end-to-end test in")
	fmt.Fprintln(w, "`internal/cluster`).")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Tracing across the cluster")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "A traced submission through the gateway yields one Chrome trace that")
	fmt.Fprintln(w, "starts at the gateway: routing decisions are recorded as spans and")
	fmt.Fprintln(w, "shipped to the owning node on the `X-Advect-Trace` header, the node")
	fmt.Fprintln(w, "bridges the hop with a clock-offset-annotated `gw.handoff` span, and a")
	fmt.Fprintln(w, "mid-run node failure is survived by harvesting the dead node's span log")
	fmt.Fprintln(w, "before the fingerprint reroute — so the export shows the partial run,")
	fmt.Fprintln(w, "the resubmission, and the survivor's full run on one monotonic")
	fmt.Fprintln(w, "timeline (golden-tested in `internal/cluster`). The full span")
	fmt.Fprintln(w, "vocabulary, one track per rank × phase:")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "| Phase | Clock |")
	fmt.Fprintln(w, "|---|---|")
	for _, p := range obs.AllPhases() {
		fmt.Fprintf(w, "| `%s` | %s |\n", p, p.Base())
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "`compute.*`/`halo.*`/`mpi.*`/`pcie.*`/`gpu.*`/`copy`/`par.region` are")
	fmt.Fprintln(w, "the runner phases the paper names; `svc.*` is the daemon's request")
	fmt.Fprintln(w, "lifecycle; `gw.*` is the gateway's routing story (route, affinity peek,")
	fmt.Fprintln(w, "submit, brief retry, failover, dead-node resubmit, cross-process")
	fmt.Fprintln(w, "handoff). Wall-clock spans are rebased across processes; sim-clock")
	fmt.Fprintln(w, "spans carry the simulated device's virtual time and are never")
	fmt.Fprintln(w, "conflated with it.")
	fmt.Fprintln(w)

	fmt.Fprintln(w, "## Static concurrency checks")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Everything above leans on concurrency — overlapped phases in the")
	fmt.Fprintln(w, "runners, worker pools and SSE fan-out in the daemon, failover in the")
	fmt.Fprintln(w, "gateway — so the repo checks its concurrency contracts by machine.")
	fmt.Fprintln(w, "`cmd/advectlint` (a stdlib-only analyzer framework in `internal/lint`)")
	fmt.Fprintln(w, "gates CI on eight invariants; the concurrency half: `lockorder` builds")
	fmt.Fprintln(w, "the module-wide lock acquisition graph — across packages, through call")
	fmt.Fprintln(w, "chains — and reports any cycle as a potential deadlock with both")
	fmt.Fprintln(w, "acquisition paths named; `goroutinelife` requires every `go` statement")
	fmt.Fprintln(w, "outside `main` to be tied to a context, WaitGroup, or done channel (or")
	fmt.Fprintln(w, "carry an audited `//advect:nolint` with its reason); `lockheld` bans")
	fmt.Fprintln(w, "blocking under a mutex; `ssedisc` enforces handler write discipline —")
	fmt.Fprintln(w, "no `WriteHeader` after the body, flushes only on complete SSE frames,")
	fmt.Fprintln(w, "stream loops that observe cancellation. Findings are machine-readable")
	fmt.Fprintln(w, "(`advectlint -json`, archived by `ci.sh`), and every rule is pinned by")
	fmt.Fprintln(w, "fixtures under `internal/lint/testdata`. See README \"Static analysis\".")
}

// stepAccount is the measured account of one functional timestep on the
// reference host. It is recorded, not recomputed: the numbers come from
// `bash bench/run.sh -workload W -trace 1` (seed 201), one run on the commit
// before and one on the commit of the factored row kernel.
const stepAccount = `## Where does a step go?

Every functional schedule spends a step in three places: the stencil row
kernel, the per-step copy sweep with the periodic-halo or exchange pass,
and hand-offs (barriers, mailboxes, fork-join). The account below is for the
2-vCPU reference host, tasks × threads = 2, wall-clock, one traced run of
` + "`bench/`" + ` per column (` + "`-workload steady_large|halo_small -trace 1 -seed 201`" + `);
"before" is the unrolled 27-term loop (53 executed flop/pt), "after" the
row kernel factored through the tensor product of Table I (22 executed
flop/pt, bounds-check free). GF stays nominal — 53 flop/pt ÷ time.

**Kernel** (` + "`stencil.*`" + `, probes at 128³ unless named; the same in both workloads' runs):

| metric | before | after |
|---|---|---|
| ` + "`stencil.whole_ns_per_pt.n128`" + ` | 11.4 ns | 3.3 ns |
| ` + "`stencil.thirds_ns_per_pt.n128`" + ` (InteriorThirds) | 10.9 ns | 3.2 ns |
| ` + "`stencil.slabs_ns_per_pt.n128`" + ` (BoundarySlabs) | 21.7 ns | 19.6 ns |
| ` + "`stencil.apply_gf.n16 / n64 / n128`" + ` (nominal) | 4.6 / 3.3 / 4.7 GF | 13.7 / 16.0 / 16.1 GF |
| ` + "`stencil.roofline_frac.n128`" + ` | 0.064 | 0.218 |

**A step** (` + "`impl.step_ms.*`" + `, ms):

| schedule | 128³ before | 128³ after | 16³ before | 16³ after |
|---|---|---|---|---|
| single (t2) | 17.2 | 7.19 | 0.076 | 0.036 |
| single (t1) | 26.7 | 9.76 | 0.074 | 0.033 |
| bulk | 13.99 | 5.12 | 0.092 | 0.059 |
| nonblocking | 15.3 | 6.16 | 0.090 | 0.073 |
| threaded | 16.8 | 6.56 | 0.107 | 0.077 |
| wide-halo | 14.8 | 5.52 | 0.074 | 0.057 |
| gpu-streams (emulated) | 89.5 | 80.4 | 0.217 | 0.229 |
| hybrid-overlap (emulated) | 93.5 | 84.9 | 0.167 | 0.159 |

**Kernel share of a bulk step** (` + "`impl.kernel_share.bulk`" + `, one Apply sweep ÷ 2
tasks ÷ bulk step): 0.84 → 0.64 at 128³ (0.58, 0.64 and 0.68 over three
traced runs of the change; the predicted ≤ 0.6 is inside that scatter, not
below it), 0.19 → 0.11 at 16³. Message and byte counts per step and the
emulated device's virtual throughput (` + "`mpi.msgs_per_step.*`" + `,
` + "`mpi.bytes_per_step.*`, `gpusim.sim_gf.*`" + `) repeat exactly; allocations per
step are unchanged.

What is left of a 128³ bulk step (5.1 ms) after 3.4 ms of kernel is the
copy sweep (16 B/pt, ≈ 1 ms per task at the 21–24 GB/s
` + "`grid.copy_interior_gb_s.n128`" + ` reads) and the exchange with its strided
x-faces: a third of the step, and the largest item a buffer swap would
remove (ROADMAP item 2 (ii)). The cut kernel is the other finding: boundary
slabs still cost 20 ns/pt against 3.3 for the whole domain — their ±x walls
are one-point rows, each touching nine cache lines for one output — so
nonblocking and threaded now trail bulk by more than before
(` + "`impl.overlap_ratio.nonblocking`" + ` 1.06 → 0.85 at 128³): the fixed price of
cutting the domain is a larger share of a cheaper step.

`

// runAccount is the measured account of the fixed cost of one Run — set-up,
// gather, verification — on the reference host. Like stepAccount it is
// recorded, not recomputed: medians of three runs per commit of
// `bash bench/run.sh -workload steady_large -trace 1` (seeds 401–403, the two
// commits alternating), one such pair for serve_mix (seed 411), and the
// end-to-end medians of ten (serve_mix) and six (the others) untraced pairs.
const runAccount = `## Where does a Run go?

A ` + "`Run`" + ` is its time steps plus a fixed cost: allocate and fill the fields,
gather the result, verify it. Before this account was taken that fixed cost
was most of a short run: one evaluation of the initial Gaussian through
` + "`Field.Fill(func…)`" + ` cost 42–61 ns per point (three ` + "`math.Mod`" + ` and one
` + "`math.Exp`" + ` behind a closure) — twelve or more time steps of the factored
kernel — and a verified two-task job made five such passes (fill, the initial
mass on a throw-away global field, the distributed norms twice, the gathered
norms once more), an unverified one still two. "Before" is that commit;
"after" fills and takes norms from per-axis tables of the squared offsets
(` + "`grid.GaussianTable`" + `: bit-identical values, no ` + "`Mod`" + ` and one ` + "`Exp`" + ` per point, split
by row range over threads and ranks), computes the initial mass only when
verifying and as an Allreduce of the ranks' own sums, takes the distributed
norms in one pass, gathers by row copy, returns the single-task field instead
of a clone of it, and commits a step by swapping the two fields' storage
instead of the copy sweep. Results did not move: the SHA-256 of the final
field of all ten kinds on a small non-cubic problem, and the emulated
devices' virtual times, equal the values recorded before
(` + "`internal/impl/testdata/golden_runs.json`" + `).

**Fixed cost of an unverified 128³ Run** (` + "`impl.overhead_ms.*`" + ` = wall time of the
call − barrier-bracketed stepping, ms; tasks × threads = 2; median of three
traced runs per commit, whose spread is up to ±40 % on this shared host):

| schedule | before | after |
|---|---|---|
| single | 131.7 | 17.9 |
| bulk | 173.5 | 25.7 |
| nonblocking | 179.8 | 29.9 |
| threaded | 243.0 | 27.2 |
| wide-halo | 187.0 | 26.0 |
| gpu (emulated) | 154.9 | 73.7 |
| gpu-bulk | 229.8 | 58.5 |
| gpu-streams | 216.1 | 63.6 |
| hybrid-bulk | 263.1 | 48.3 |
| hybrid-overlap | 277.9 | 63.2 |

**What it is made of:**

| metric | before | after |
|---|---|---|
| ` + "`grid.fill_ns_per_pt`" + ` (64³) | 47.2 ns (42–61) | 13.1 ns (8.5–13.3) |
| ` + "`impl.alloc_mb_per_run.single`" + ` (128³, 32 steps; repeats exactly) | 52.7 MB | 35.2 MB |
| ` + "`impl.alloc_mb_per_run.bulk`" + ` | 113.4 MB | 79.0 MB |
| ` + "`impl.alloc_mb_per_run.gpu_streams`" + ` | 260.5 MB | 154.7 MB |
| ` + "`impl.alloc_mb_per_run.hybrid_overlap`" + ` | 285.3 MB | 183.8 MB |
| ` + "`grid.pack_gb_s.x / unpack_gb_s.x`" + ` (strided x faces) | 1.5 / 3.0 GB/s | 2.8 / 3.5 GB/s |
| ` + "`impl.overhead_ms.bulk`" + ` at 48³ (the serve_mix job shape) | 12.4 ms | 3.4 ms |
| ` + "`service.run_direct_ms_p50`" + ` (48³ × 10, verified, 2 tasks) | 38.2 ms | 12.8 ms |
| ` + "`service.exec_ms_p50`" + ` (the same inside advectd, two clients) | 57.0 ms | 20.7 ms |

` + "`mpi.gather_ms.n128_t2`" + ` times ` + "`mpi.Comm.Gather`" + ` itself, which did not change (the
probe read 5.7 and 2.6 ms here, 2.9 and 4.2 ms in an earlier pair: the host);
the runners' gather around it lost its per-point ` + "`At`" + `/` + "`Set`" + ` loops and rank 0's
two copies of its own rows. Message and byte counts per step and the emulated
devices' throughput (` + "`mpi.msgs_per_step.*`" + `, ` + "`mpi.bytes_per_step.*`" + `,
` + "`gpusim.sim_gf.*`" + `) repeat exactly. Allocations per step fell by 1–4 for the
CPU schedules (the copy sweep's fork-join) and read 2 higher for the two
hybrid runners (104.7 against 102.7; their step loop did not change).

**A 128³ step without the copy sweep** (` + "`impl.step_ms.*`" + `, ms, same runs):

| schedule | before | after |
|---|---|---|
| single (t2) | 6.54 | 4.45 |
| single (t1) | 10.1 | 7.64 |
| bulk | 7.51 | 5.43 |
| nonblocking | 6.54 | 5.91 |
| threaded | 8.04 | 6.74 |
| wide-halo | 7.65 | 5.93 |

**End to end** (untraced pairs, nominal-host medians; the change won every pair
on every timing, ` + "`ops_failed`" + ` 0 in all 44 runs):

| workload | metric | before | after |
|---|---|---|---|
| serve_mix (48³ × 10 jobs through advectd) | ` + "`job_ms_p50`" + ` | 52.4 ms | 20.9 ms |
| | ` + "`jobs_per_s`" + ` | 69.3 | 158.3 |
| | ` + "`mlups.bulk`" + ` | 29.6 | 85.3 |
| | ` + "`rss_mb`" + ` | 24.2 | 24.3 |
| steady_large (128³ × 16) | ` + "`mlups.single / bulk / nonblocking / threaded / wide_halo`" + ` | 101 / 75.5 / 74.6 / 62.0 / 75.2 | 227 / 178 / 172 / 174 / 174 |
| | ` + "`setup_s`" + ` | 0.90 s | 0.33 s |
| | ` + "`rss_mb`" + ` | 151 | 134 |
| halo_small (16³ × 2400) | ` + "`mlups.single / bulk / nonblocking / threaded / wide_halo`" + ` | 112 / 83.5 / 62.4 / 61.7 / 83.9 | 134 / 94.7 / 66.3 / 69.2 / 93.7 |
| | ` + "`rss_mb`" + ` | 11.01 | 10.96 |

On halo_small 2400 steps amortise the set-up, so what shows is the step loop:
one fork-join and one pass over two 46 KB fields fewer per step, 6–20 %.
At 128³ the overlap schedules now finish a run within 3 % of bulk (they
trailed it by up to 18 %): most of that gap was the fixed cost — four closure
passes over a rank's points and a serial global one weigh more on the
schedules whose steps are cheapest to begin with — not the boundary slabs,
whose 17–20 ns per point are still there in ` + "`impl.step_ms`" + ` (nonblocking
5.9 ms against bulk 5.4).

`

// warmerTable replays an 8-point stepped sweep through a real
// session.Warmer, assuming background pre-execution keeps up (every
// prediction is marked warmed before the next interactive point
// arrives), and tabulates which points the sweep got for free.
func warmerTable() (stats.Table, int) {
	warm := session.NewWarmer(session.WarmerConfig{})
	key := func(steps float64) string { return fmt.Sprintf("steps=%g", steps) }
	t := stats.Table{Header: []string{"point", "steps", "served", "new predictions"}}
	hits := 0
	for i := 0; i < 8; i++ {
		steps := float64(40 * (i + 1))
		served := "computed"
		if warm.WasWarmed(key(steps)) {
			served = "warm hit"
			hits++
		}
		preds := warm.Observe("simulate n=8", []float64{steps})
		var predicted []string
		for _, p := range preds {
			warm.MarkWarmed(key(p.Value))
			predicted = append(predicted, fmt.Sprintf("%g", p.Value))
		}
		label := "—"
		if len(predicted) > 0 {
			label = strings.Join(predicted, ", ")
		}
		t.AddRow(fmt.Sprintf("%d", i+1), fmt.Sprintf("%g", steps), served, label)
	}
	return t, hits
}

// driftTable tabulates the model-side hidden-communication expectation
// per overlap kind and core count — the baseline the flight recorder's
// drift rule holds measured runs against.
func driftTable() stats.Table {
	cores := []int{2, 12, 24, 96}
	t := stats.Table{Header: []string{"kind"}}
	for _, c := range cores {
		t.Header = append(t.Header, fmt.Sprintf("%d cores", c))
	}
	m, err := machine.ByName("Yona")
	if err != nil {
		return t
	}
	for _, k := range []core.Kind{core.NonblockingOverlap, core.ThreadedOverlap, core.GPUStreams, core.HybridOverlap} {
		row := []string{k.String()}
		for _, c := range cores {
			f, err := perf.ExpectedHiddenFraction(perf.Config{
				M: m, Kind: k, Cores: c, Threads: 1, N: grid.Uniform(48),
			})
			if err != nil {
				row = append(row, "—")
				continue
			}
			row = append(row, fmt.Sprintf("%.2f", f))
		}
		t.AddRow(row...)
	}
	return t
}

// writeMarkdown renders a stats.Table as a Markdown table.
func writeMarkdown(w io.Writer, t stats.Table) {
	esc := func(c string) string { return strings.ReplaceAll(c, "|", "\\|") }
	fmt.Fprint(w, "|")
	for _, h := range t.Header {
		fmt.Fprintf(w, " %s |", esc(h))
	}
	fmt.Fprintln(w)
	fmt.Fprint(w, "|")
	for range t.Header {
		fmt.Fprint(w, "---|")
	}
	fmt.Fprintln(w)
	for _, r := range t.Rows {
		fmt.Fprint(w, "|")
		for _, c := range r {
			fmt.Fprintf(w, " %s |", esc(c))
		}
		fmt.Fprintln(w)
	}
}
