#!/bin/sh
# Builds the benchmark from the checkout's sources and runs it.
#
#   sh perfbench/run.sh --workload swap-store --seed 1 --seconds 36 --trace 0
#
# Run from the repository root. The module needs nothing beyond the
# repository and the Go toolchain. Everything the build and the run write
# (Go build cache, binary, profiles) stays under .bench_build/ in the
# current directory.
set -eu

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" -out "$out/perfbench-out" "$@"
