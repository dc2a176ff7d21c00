#!/usr/bin/env bash
# Builds the serving benchmark from this checkout and runs it from the
# repository root; every argument goes to the benchmark (see main.go):
#
#   bash perfbench/run.sh --workload ranked --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and the traced run's spans stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/perfbench" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench/perfbench" .)
exec "$out/perfbench/perfbench" "$@"
