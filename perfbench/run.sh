#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload grid-detail --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build writes (binary, Go
# build cache, temporary files, GOPATH, the go command's own config) stays
# under .bench_build/ in the checkout; module downloads are disabled, the
# module needs none.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
out="$(cd "$out" && pwd)"

GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off \
	go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
