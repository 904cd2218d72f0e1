#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it sits in and runs
# it, passing every argument through (see README.md for the flags). Build
# outputs, the Go build cache, the go command's config and telemetry
# directory and the span files stay under .bench_build/ at the checkout
# root, so a run writes nothing outside the checkout.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
