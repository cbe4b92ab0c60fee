#!/usr/bin/env bash
# Builds the benchmark harness from source and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload campaign-512 --seed 1 --seconds 15 --trace 0
#
# The binary, the Go build cache and the Go configuration all live under
# .bench_build/ in the current directory, so a run writes nothing outside
# the checkout. The first run compiles the standard library into that cache;
# later runs reuse it.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export CGO_ENABLED=0

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
