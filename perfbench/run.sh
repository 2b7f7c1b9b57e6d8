#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# anywhere; every file the build and the run write stays under
# .bench_build/ at the checkout root.
#
#   bash perfbench/run.sh --workload ckpt-l3 --seed 1 --seconds 30 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/home"

# Keep the Go toolchain's caches, configuration and telemetry inside the
# checkout, and build without cgo so no C toolchain is needed.
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off
export GOFLAGS=-mod=readonly
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export CGO_ENABLED=0

go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -workdir "$out/work" "$@"
