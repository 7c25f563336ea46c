#!/usr/bin/env bash
# Builds bench/ddrperf from source into .bench_build/ at the root of the
# checkout (Go's build cache and the toolchain's telemetry counters go
# there too, so nothing is written outside the checkout) and runs it with
# the arguments given. This is the command BENCHMARK.json names; run it
# from the root of the checkout.
set -euo pipefail
bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$bench")/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=auto
(cd "$bench" && go build -o "$build/ddrperf" ./ddrperf) >&2
exec "$build/ddrperf" "$@"
