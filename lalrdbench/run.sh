#!/usr/bin/env bash
# Builds the lalrd serving benchmark from this checkout and runs it with
# the given arguments.  Run from the repository root:
#
#   bash lalrdbench/run.sh --workload cold-corpus --seed 1 --seconds 30 --trace 0
#
# The build cache, temporary files, the go command's own state and the
# binary stay under .bench_build in the current directory.
set -euo pipefail
root=$(pwd)
bench=$(cd "$(dirname "$0")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$bench" && go build -o "$out/lalrdbench" .) >&2
exec "$out/lalrdbench" -root "$root" "$@"
