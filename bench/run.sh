#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything the build writes
# (Go build cache included) stays in .bench_build/ at the root of the
# checkout, so nothing outside the checkout is touched. The first build in
# a fresh checkout compiles the standard library too and takes a minute or
# two; later ones take a second.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off
(cd "$here" && go build -o "$build/gsi-bench" .) >&2
exec "$build/gsi-bench" -outdir "$here/out" "$@"
