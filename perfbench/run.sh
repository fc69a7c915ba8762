#!/usr/bin/env bash
# Builds the benchmark program and the wdcserved binary it spawns from this
# checkout's sources, then runs the program with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload sweep-t1 --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# (Go build cache, binaries, temporary files) stays under .bench_build, or
# under $CARGO_TARGET_DIR when that is set.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off GOWORK=off CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/wdcserved" repro/cmd/wdcserved) >&2

exec "$out/perfbench" -wdcserved "$out/wdcserved" "$@"
