#!/usr/bin/env bash
# Builds the rlcload benchmark and runs it. Run it from inside the
# checkout: the harness finds the checkout root by walking up from the
# working directory. Relative file arguments name files in the working
# directory.
# Build outputs, the Go build cache and every temporary file of the run
# stay under .bench_build/ at the checkout root.
#
#   bash cmd/rlcload/run.sh -workload all -seed 1 -out result.json
#   bash cmd/rlcload/run.sh -workload tree-cold -seed 1 -trace spans.json
#   bash cmd/rlcload/run.sh -compare a.json b.json
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/cmd/rlcload" build -o "$build/rlcload" .
exec "$build/rlcload" "$@"
