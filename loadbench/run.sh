#!/usr/bin/env bash
# Builds smashd and the load generator from the checkout's sources into
# .bench_build/, then runs one benchmark workload:
#
#   bash loadbench/run.sh --workload tumbling|sliding|tree --seed N --seconds S --trace 0|1
#
# Run from the repository root. Everything the build and the run write
# stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config/go/telemetry"
# With telemetry on, the go command forks a detached sidecar process that
# can outlive this script; turning it off means go starts no process of
# its own beyond the build.
echo off >"$out/config/go/telemetry/mode"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go build -o "$out/bin/smashd" ./cmd/smashd
(cd loadbench && go build -o "$out/bin/loadbench" .)
exec "$out/bin/loadbench" --smashd "$out/bin/smashd" --work "$out/work" "$@"
