#!/usr/bin/env bash
# Builds the round benchmark from source inside the checkout and runs it
# with the given arguments. Everything the build writes (compiler cache,
# temporary files, the binary) stays under .bench_build/ at the checkout
# root, so a run touches nothing outside its checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/go-cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps its telemetry counters under the user config directory.
export XDG_CONFIG_HOME="$build/config"
(cd "$here" && go build -o "$build/roundbench" .)
cd "$root"
exec "$build/roundbench" "$@"
