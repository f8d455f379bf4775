#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload cache-narrow --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Everything the build writes stays in
# .bench_build at the root: the binary, Go's build cache, its temporary
# files and the Go tool's own settings. The build needs no network: the
# module's only dependency is the repository itself.
set -euo pipefail

root="$(pwd)"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off CGO_ENABLED=0
mkdir -p "$GOTMPDIR"

(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
