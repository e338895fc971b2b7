#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in and
# runs it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload cell-adhoc-mab --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# current directory: the Go build cache, the go command's own config and
# telemetry files (HOME points there), the binary, checkpoints and spans.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off GOFLAGS=
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"

go build -o "$build/e2ebench" ./e2ebench
exec "$build/e2ebench" --workdir "$build" "$@"
