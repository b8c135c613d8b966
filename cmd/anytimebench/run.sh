#!/usr/bin/env bash
# Builds anytimebench from source and runs it with the given arguments.
#
# Run from the root of a checkout: BENCHMARK.json's command is
# `bash cmd/anytimebench/run.sh`. Everything the build writes — the binary, the
# compiler's cache, the (empty) module cache — goes under .bench_build in the
# checkout, so a run reads and writes nothing outside it. The binary is rebuilt
# only when a source file changed.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$build/anytimebench" .)
cd "$root"
exec "$build/anytimebench" "$@"
