#!/usr/bin/env bash
# Builds the benchmark from source and runs it; BENCHMARK.json names this
# script as the command. Everything the build writes stays inside the
# checkout, under .bench_build/ (the Go build and module caches too).
#
#   bash bench/run.sh --workload fed-tree --seed 7 --seconds 20 --trace 0
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
