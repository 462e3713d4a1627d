#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it, passing every
# argument through. Run it from the repository root:
#
#   bash perfbench/run.sh --workload served-mem --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary and the benchmark's scratch files all live
# under .bench_build/ in the current directory, so nothing outside the
# checkout is read from or written to besides the Go toolchain itself.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" "$@"
