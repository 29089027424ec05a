#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout (Go build cache included, so nothing is written outside the
# checkout) and runs it there with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/advectbench" .
cd "$root"
exec "$build/advectbench" "$@"
