#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash benchmark/run.sh --workload train-alie --seed 1 --seconds 10 --trace 0
#
# Every build artifact (Go build cache, module cache, the binary) lands
# in .bench_build at the repository root, and HOME points there too, so
# the toolchain writes nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off GOTELEMETRY=off
go -C "$root/benchmark" build -o "$out/byzshield-bench" . >&2
exec "$out/byzshield-bench" "$@"
