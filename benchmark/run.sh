#!/usr/bin/env bash
# BENCHMARK.json's command. Builds the benchmark from source into
# .bench_build/ at the root of the checkout — the binary, the Go build cache
# and GOPATH all live there, so a run writes nothing outside the checkout —
# and runs it with the arguments given.
set -euo pipefail
cd "$(dirname "$0")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/go-cache" GOPATH="$PWD/.bench_build/gopath" GOTOOLCHAIN=local
go build -o .bench_build/dacebench ./benchmark
exec .bench_build/dacebench "$@"
