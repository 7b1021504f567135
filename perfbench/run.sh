#!/usr/bin/env bash
# Builds the benchmark from the checkout's own sources and runs it. Run it
# from the repository root; every argument is passed to the benchmark:
#
#   bash perfbench/run.sh --workload bulk-uniform --seed 1 --seconds 20 --trace 0
#
# The Go build cache, temporary build files, the binary and the service's
# scratch state all live under .bench_build at the root, so nothing is
# written outside the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
