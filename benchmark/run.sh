#!/usr/bin/env bash
# Builds the benchmark and lumosd from this checkout, then runs one workload.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload plan-cold --seed 1 --seconds 25 --trace 0
#
# Every build artefact, Go cache and scratch file stays under .bench_build
# in the working directory; the result is the last line of standard output.
set -euo pipefail

root=$PWD
out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=mod

cd "$root/benchmark"
go build -o "$out/lumosbench" .
go build -o "$out/lumosd" lumos/cmd/lumosd
cd "$root"
exec "$out/lumosbench" -root "$root" -lumosd "$out/lumosd" -work "$out/work" "$@"
