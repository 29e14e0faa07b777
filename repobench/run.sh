#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository root:
#
#   bash repobench/run.sh --workload fig7 --seed 1 --seconds 45 --trace 0
#
# It builds the benchmark program (a module of its own that imports the
# simulator's packages through a replace directive) and hands it the
# arguments. Every build artefact, the Go build cache and temporary files
# stay under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go -C repobench build -buildvcs=false -o "$out/repobench" .
exec "$out/repobench" "$@"
