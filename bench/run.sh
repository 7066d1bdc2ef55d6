#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it. The Go
# build cache, temp files and the binary all live under .bench_build so a run
# reads and writes nothing outside the checkout. Run from the repository root.
set -euo pipefail
root=$PWD
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOTOOLCHAIN=local
go build -C "$root/bench" -o "$build/melissa-bench" .
exec "$build/melissa-bench" "$@"
