#!/bin/sh
# CI gate: formatting, the README + DESIGN size bar, vet, advectlint,
# build, the full test suite with the race detector, repeated race runs of
# the mpi waits and of the gateway's ring walk, ten seconds of fuzzing the
# checkpoint parser (FuzzLoad), one run of every root-module benchmark, vet
# and tests of the nested bench/ module, and the nine ns_gate bounds of
# BENCH_guards.json (each with its allocation test).
# Stdlib-only repo; requires only a Go >= 1.22 toolchain.
set -eux

# Formatting gate: gofmt must have nothing to rewrite.
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on: $unformatted" >&2
    exit 1
fi

# Prose gate (ROADMAP item 7, "say each thing once"): README.md and
# DESIGN.md together stay within 45 000 bytes. README says how to run it,
# DESIGN why it is built this way; numbers live in docs/report.md and
# EXPERIMENTS.md, equations in MODEL.md.
prose_bytes=$(cat README.md DESIGN.md | wc -c)
if [ "$prose_bytes" -gt 45000 ]; then
    echo "README.md + DESIGN.md are $prose_bytes bytes, over the 45000-byte bar" >&2
    exit 1
fi

go vet ./...
# The stencil's Go row loop is the only one off amd64 (kernel_other.go):
# vetting that build keeps it compiling.
GOARCH=arm64 go vet ./internal/stencil

# advectlint gate: the project-invariant static analyzer suite
# (internal/lint + cmd/advectlint) must report nothing; its findings are
# file:line:col text on stdout. Audited exceptions need an
# "//advect:nolint <analyzer> <reason>" directive.
go run ./cmd/advectlint ./...

# Self-check: the analyzer test fixtures live under internal/lint/testdata
# and must stay invisible to the module build (the go tool skips testdata
# by convention; renaming the directory would silently compile them in).
if go list ./... | grep -q testdata; then
    echo "lint fixtures leaked into the module build" >&2
    exit 1
fi

go build ./...
# An explicit timeout: a hung test should cost minutes and print its
# goroutines, not sit out the ten-minute default per package. The
# unfiltered suite is the gate for the crash-safety, drain, session
# durability and failover tests and for the cluster trace golden
# (regenerate it with UPDATE_GOLDEN=1 after intentional span-set changes).
# docs/report.md is pinned the same way: UPDATE_GOLDEN=1 go test ./cmd/report
go test -race -timeout 5m ./...

# The in-process MPI's waits (Barrier's rank-0 round, a panicking rank's
# poison, the collectives' tags, a receive that polls before it parks) run
# through many interleavings under the race detector: twenty repeats take
# a couple of seconds.
go test -race -count=20 -run 'Barrier|Panic|Collectives|Polling' ./internal/mpi

# The gateway's one ring walk (place) meets a shed, a long Retry-After, a
# drain 503 and a node without sessions in these tests; twenty race runs
# take a few seconds.
go test -race -count=20 -run 'SessionCreate|ShedsWhenAllReject|FailsOverOnLongRetryAfter' ./internal/cluster

# checkpoint.Load parses untrusted bytes: a seeded session create carries a
# checkpoint in its request body. Ten seconds of FuzzLoad beyond its seed
# corpus must find no panic and no inconsistent accepted file.
go test -run '^$' -fuzz '^FuzzLoad$' -fuzztime 10s ./internal/checkpoint

# Every benchmark of the root module runs once (-benchtime 1x), timing
# unjudged: a benchmark a change breaks — a renamed call, a buffer too
# short for a new shape, a panic — fails here, not in the next
# measurement that needs it.
go test -run '^$' -bench . -benchtime 1x ./...

# bench/ is its own module (repro/bench, replace repro => ../), so the root
# gate above neither vets nor compiles it: vet, build and smoke-test it here,
# so that a signature change in stencil/grid/service that breaks the
# benchmark fails CI and not the pipeline that builds it from source.
(cd bench && go vet ./... && go test ./...)

# ns_gate PKG ALLOC_TEST BENCH FILE KEY WHAT: a hot path that rides every
# request or every step must stay allocation-bounded (ALLOC_TEST asserts it)
# and under the ns/op bound recorded as KEY in FILE (all nine live in
# BENCH_guards.json, one distinct key per line).
ns_gate() {
    go test -run "$2" -count=1 "$1"
    max_ns=$(sed -n "s/.*\"$5\": *\([0-9.]*\).*/\1/p" "$4")
    bench_out=$(go test -run '^$' -bench "$3" -benchtime 1000000x "$1")
    echo "$bench_out"
    ns=$(echo "$bench_out" | awk -v b="$3" 'index($1, b) == 1 {print $3}')
    awk -v ns="$ns" -v max="$max_ns" -v what="$6" 'BEGIN {
        if (ns == "" || max == "") { print "could not read benchmark or baseline"; exit 1 }
        if (ns + 0 > max + 0) { printf "%s %s ns/op exceeds bound %s\n", what, ns, max; exit 1 }
    }'
}

# Disabled-tracing overhead guard: a nil *obs.Recorder must stay
# allocation-free, so instrumented code paths stay free when untraced.
ns_gate ./internal/obs TestDisabledRecorderAllocatesNothing BenchmarkRecorderDisabled \
    BENCH_guards.json obs_disabled_max_ns_per_op "disabled-tracing path"

# Telemetry guard, the first on an enabled serving path: Observe
# carries the lifetime totals beside the ring — one series per quantity —
# and every unit of work calls it several times (outcomes, exec, points,
# queue depth and wait).
ns_gate ./internal/telemetry TestWindowObserveAllocatesNothing BenchmarkWindowObserve \
    BENCH_guards.json telemetry_observe_max_ns_per_op "enabled Window.Observe"

# Flight-recorder guard: the flight ring is always on, so every job
# transition and log line pays one Recorder.Add.
ns_gate ./internal/flight TestFlightAddAllocatesNothing BenchmarkFlightAdd \
    BENCH_guards.json flight_add_max_ns_per_op "flight Recorder.Add"

# Disabled-cluster-tracing overhead guard: an untraced submission carries
# the zero submissionTrace (a nil recorder) through the whole gateway
# routing path, so cluster tracing costs nothing when off.
ns_gate ./internal/cluster TestGatewayTraceDisabledAllocatesNothing BenchmarkGatewayTraceDisabled \
    BENCH_guards.json gateway_trace_disabled_max_ns_per_op "disabled-cluster-tracing path"

# Session hot-path guard: the status snapshot behind GET
# /v1/sessions/{id} rides an interactive path.
ns_gate ./internal/service TestSessionStatusAllocationBounded BenchmarkSessionStatus \
    BENCH_guards.json session_status_max_ns_per_op "session status path"

# Ring hot-path guard: consistent-hash Lookup runs on every gateway
# submission.
ns_gate ./internal/cluster TestRingLookupAllocationFree BenchmarkRingLookup \
    BENCH_guards.json ring_lookup_max_ns_per_op "ring lookup"

# Untraced-device guard: the first on a science-path substrate rather than
# a disabled serving path. Every step of §IV-F…I makes two or more gpusim
# copies and several launches; with no observer attached they must not
# allocate (no span label is formatted) and a small copy stays cheap.
ns_gate ./internal/gpusim TestUntracedDeviceCallsAllocateNothing BenchmarkMemcpyUntraced \
    BENCH_guards.json gpusim_untraced_memcpy_max_ns_per_op "untraced device copy"

# Stencil guard, the first on the science: one 128-point row of a 128³
# field through the row kernel (the AVX body on amd64 with AVX), the unit
# every schedule and emulated-device launch is made of.
ns_gate ./internal/stencil TestApplyNoAllocs BenchmarkApplyRow128 \
    BENCH_guards.json stencil_row128_max_ns_per_op "stencil row kernel"

# Exchange-substrate guard, the first on a halo exchange: one send of 64
# values and its receive, through a recycled payload slot. Send, Recv and
# the collectives copy through these slots; the exchanger's persistent
# requests lend the same slots without the copy.
ns_gate ./internal/mpi TestSteadyMessagesAllocateNothing BenchmarkSendRecv64 \
    BENCH_guards.json mpi_sendrecv64_max_ns_per_op "mpi send/recv of 64 values"
