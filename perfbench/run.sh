#!/usr/bin/env bash
# Builds the benchmark from the enclosing checkout and runs it with the
# given arguments, from the checkout root:
#
#   bash perfbench/run.sh --workload rmi-echo --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run leave behind stays in .bench_build/
# at the checkout root. Without the oopp module one directory up, the
# build fails and so does this script.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
# The go command's caches, temporary files, and its config and telemetry
# (under XDG_CONFIG_HOME) all stay inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C "$root/perfbench" build -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
