#!/usr/bin/env bash
# Builds the benchmark and the cmd/dcfserve binary it drives, then runs the
# benchmark from the root of the checkout. Everything the build and the run
# write stays under .bench_build/ in the checkout (the Go build cache too).
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Without the program there is nothing to measure: fail before starting anything.
if [[ ! -f go.mod || ! -d cmd/dcfserve ]]; then
  echo "benchmark/run.sh: no go.mod or cmd/dcfserve in $PWD: run it from a checkout of the program" >&2
  exit 1
fi
out="$PWD/.bench_build"
# Telemetry off before the first go command: in its default mode the toolchain
# detaches a child to write its reports, and that child outlives a short run.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"
# The toolchain's own files too: build cache, module cache, configuration.
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOENV=off
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -o "$out/dcfserve" ./cmd/dcfserve
go -C benchmark build -o "$out/benchmark" .
exec "$out/benchmark" -dcfserve "$out/dcfserve" -out "$out/out" "$@"
