#!/usr/bin/env bash
# Builds the benchmark and fuseserve from this checkout, then runs the
# benchmark with GOMAXPROCS=1. Run it from the root of the checkout:
#
#   bash perfbench/run.sh --workload figures-all --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh --steady 10 --workload sim-full --seed 1 --seconds 15
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS=-buildvcs=false GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOWORK=off
# The go command keeps its settings and telemetry under the config directory.
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"

(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
go build -o "$out/bin/fuseserve" ./cmd/fuseserve

export GOMAXPROCS=1
exec "$out/bin/perfbench" -workdir "$out/work" -fuseserve "$out/bin/fuseserve" -benchmark "$root/BENCHMARK.json" "$@"
