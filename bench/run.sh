#!/usr/bin/env bash
# Builds the benchmark from source and runs it; this is BENCHMARK.json's
# command. Everything the build writes — the Go build cache, its temporary
# files, the binary — stays under .bench_build in the checkout, and the
# benchmark's own scratch (WAL directories, trace.json) under bench/out.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off
# bench/ is a module of its own (bench/go.mod) that replaces padres with the
# checkout it sits in, so the build fails — as it must — where the program's
# source is absent. Build chatter goes to stderr: the last line of stdout
# belongs to the result.
(cd "$root/bench" && go build -o "$build/padres-bench" .) >&2
cd "$root"
exec "$build/padres-bench" "$@"
