#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark inside the checkout, then run
# it with the arguments given. Everything the build and the run write — the
# go build cache, the binary, the files of the OS-backed workloads — goes
# under .bench_build in the current directory, which must be the repository
# root.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local

commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
if [ "$commit" != unknown ] && [ -n "$(git status --porcelain 2>/dev/null)" ]; then
	commit="$commit-dirty"
fi

go build -buildvcs=false -ldflags "-X main.commit=$commit" -o "$build/benchmark" ./benchmark
exec "$build/benchmark" "$@"
