#!/usr/bin/env bash
# Entry point of BENCHMARK.json: builds the benchmark from source inside the
# checkout (binary, build cache and temporary files all under .bench_build/)
# and runs it with the arguments given. Run from anywhere; it changes to the
# repository root, where bench/out/spans.json is written.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
