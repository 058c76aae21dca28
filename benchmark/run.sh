#!/usr/bin/env bash
# Builds the benchmark harness and runs it from the checkout root.
# Everything the Go toolchain writes (build cache, temp files, its own
# config) is kept under .bench_build/ inside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" XDG_CACHE_HOME="$build/home/.cache"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local
(cd "$root/benchmark" && go build -o "$build/respect-benchmark" .)
cd "$root"
exec "$build/respect-benchmark" "$@"
