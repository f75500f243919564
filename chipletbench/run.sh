#!/usr/bin/env bash
# Builds chipletd and the benchmark from source into .bench_build, then runs
# the benchmark with the given arguments. Run it from the repository root:
#
#   bash chipletbench/run.sh --workload solve-cold --seed 1 --seconds 20 --trace 0
#   bash chipletbench/run.sh --steady 5 --seconds 20   # steadiness self-check
#
# The Go build cache, GOPATH, user config and temporary files also live
# under .bench_build, so the benchmark reads and writes only inside the
# checkout.
set -euo pipefail
if [[ ! -f go.mod || ! -d cmd/chipletd || ! -f chipletbench/go.mod ]]; then
  echo "chipletbench: run from the repository root; go.mod and cmd/chipletd are missing here" >&2
  exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
  GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -o "$out/chipletd" ./cmd/chipletd
(cd chipletbench && go build -o "$out/chipletbench" .)
exec "$out/chipletbench" "$@"
