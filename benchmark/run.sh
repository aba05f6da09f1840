#!/usr/bin/env bash
# Builds triqbench and triqd from source into .bench_build/ at the root of the
# checkout and runs triqbench there. Everything go writes (build cache, temp
# files, telemetry) is kept inside .bench_build/ too.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" \
	HOME="$build/home" GOTOOLCHAIN=local GOPROXY=off
cd "$root/benchmark"
go build -o "$build/triqbench" .
go build -o "$build/triqd" repro/cmd/triqd
cd "$root"
exec "$build/triqbench" "$@"
