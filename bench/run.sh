#!/usr/bin/env bash
# Entry point of the repository benchmark (see README.md beside this file).
# It keeps every byte the Go toolchain writes inside the checkout, builds
# the benchmark from bench/ — a module of its own — and runs it. The
# benchmark itself then builds cmd/streamd. Arguments pass through.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/cmd/streamd/main.go" ]; then
	echo "bench: no repository around $here (need ../go.mod and ../cmd/streamd): nothing to build or measure" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
# The toolchain keeps its env file and telemetry counters under the user
# config directory; move that inside the checkout too.
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local

(cd "$here" && go build -o "$build/bench" .)
exec "$build/bench" -root "$root" "$@"
