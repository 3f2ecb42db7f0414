#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload consumer --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary and
# the shard journals.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=

(cd "$root/e2ebench" && go build -o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
