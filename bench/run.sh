#!/usr/bin/env bash
# Builds torusbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash bench/run.sh --workload hot-mix --seed 1 --seconds 20 --trace 0
#
# The build cache, temporary files, and the binary stay in .bench_build at
# the root, so nothing is read from or written to the user's Go caches.
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "torusbench: run from the repository root (torusnet sources not found)" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build/cache" "$build/tmp" "$build/home"
# HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry
# counters among them) inside the checkout too.
(cd "$root/bench" && env GOCACHE="$build/cache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	HOME="$build/home" XDG_CONFIG_HOME="$build/home" GOTOOLCHAIN=local GOFLAGS= GOWORK=off \
	GOENV=off CGO_ENABLED=0 go build -o "$build/torusbench" ./cmd/torusbench)
exec "$build/torusbench" "$@"
