#!/usr/bin/env bash
# Builds bisrbench from source and runs it with the given flags, e.g.
#
#   bash cmd/bisrbench/bench.sh --workload cold-compile --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything it writes stays under
# .bench_build/ there: the binary, the Go build cache, and the temp
# directories the in-process daemons store their objects in.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/cmd/bisrbench" && go build -o "$build/bisrbench" .) >&2
exec "$build/bisrbench" "$@"
