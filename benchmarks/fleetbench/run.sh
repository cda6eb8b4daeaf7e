#!/usr/bin/env bash
# Builds fleetbench from the checkout this script sits in and runs it
# with the arguments given:
#
#   bash benchmarks/fleetbench/run.sh --workload read_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write — Go's build cache, temp
# files, the replication log, the trace file — stays under .build/ next
# to this script. It fails, printing no result, where the rest of the
# repository (module repro, two directories up) is missing.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$here/.build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
# Go's telemetry counters go to the user config directory.
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local

cd "$here"
go build -o "$build/fleetbench" .
exec "$build/fleetbench" "$@"
