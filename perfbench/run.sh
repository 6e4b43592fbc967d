#!/usr/bin/env bash
# Builds the benchmark and cmd/rpmserved from source, then runs one
# workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload train --seed 1 --seconds 20 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the current
# directory, the Go build cache included.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off

# The benchmark is its own module; it builds against the repository one
# directory up, so outside a repository checkout these builds fail.
go -C perfbench build -o "$out/perfbench" .
go -C perfbench build -o "$out/rpmserved" rpm/cmd/rpmserved

exec "$out/perfbench" --server "$out/rpmserved" --workdir "$out/run" "$@"
