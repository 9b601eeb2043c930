#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of the
# checkout. Everything the build writes (Go build cache, temp files, the
# toolchain's telemetry state, the binary) stays under benchmark/.build/.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ]; then
	echo "benchmark/run.sh: no go.mod here: the program's source is missing" >&2
	exit 1
fi
build=$PWD/benchmark/.build
# The go command keeps telemetry counters under the user config dir and,
# unless the mode there is "off", forks a detached sidecar that outlives it.
# Point it at a config dir of our own with telemetry off, so that no process
# is left behind and nothing outside the checkout is written.
mkdir -p "$build/tmp" "$build/config/go/telemetry"
echo off >"$build/config/go/telemetry/mode"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp"
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
XDG_CONFIG_HOME="$build/config" go build -o "$build/fidr-benchmark" ./benchmark
exec "$build/fidr-benchmark" "$@"
