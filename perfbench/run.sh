#!/usr/bin/env bash
# Builds the perfbench benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload exec-hot --seed 1 --seconds 12 --trace 0
#
# Everything the build writes (Go build cache, binary, result files) goes
# under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off
if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
