#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the
# repository root with the arguments given, e.g.
#   bash benchmark/run.sh --workload paper-quick --seed 1996 --seconds 10 --trace 0
# The binary, the Go build cache, the go command's own config and
# telemetry, and the Chrome trace of a traced run all stay under
# $CARGO_TARGET_DIR (default .bench_build) in the repository; the go
# command never goes to the network.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off XDG_CONFIG_HOME="$out/config"
(cd benchmark && go build -o "$out/ffsbench" .)
exec "$out/ffsbench" -trace-dir "$out/trace" "$@"
