#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it.
#
#   bash perfbench/run.sh --workload stream_hot --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh compare parent-runs/ change-runs/
#
# Everything the Go toolchain writes (build cache, binary) stays under
# .bench_build/ at the checkout root, and no module is ever fetched: the
# benchmark imports only this repository and the standard library.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOENV=off
export GOFLAGS=
export GOPROXY=off
export GOSUMDB=off
export GOTOOLCHAIN=local
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
