#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build and
# the run write — Go build cache, binary, WAL directories, span files —
# stays under .bench_build/ at the root of the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$here/../.bench_build"
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local
go build -C "$here" -o "$build/ftmp-benchmark" .
TMPDIR="$build/tmp" exec "$build/ftmp-benchmark" "$@"
