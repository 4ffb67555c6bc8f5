#!/usr/bin/env bash
# Builds the benchmark (perfbench/, its own Go module over the repository
# module at ..) from source and runs it with the given flags, e.g.
#
#   bash perfbench/run.sh --workload fleet-cold --seed 1 --seconds 40 --trace 0
#
# Run from the repository root. Everything the build and the run write —
# Go build cache, binary, profiles, write-ahead logs — stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build) of the
# checkout. Nothing is downloaded: the module has no dependencies outside
# the repository.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/gocache" "$out/tmp" "$out/gomodcache" "$out/config"

# XDG_CONFIG_HOME keeps the go command's local telemetry counters here too.
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOTMPDIR=$out/tmp TMPDIR=$out/tmp
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off XDG_CONFIG_HOME=$out/config

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
