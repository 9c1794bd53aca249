#!/usr/bin/env bash
# Builds the renuver binary and the benchmark driver from source into
# .bench_build, then runs the driver with the arguments given, e.g.
#
#   bash e2ebench/run.sh --workload serve-restaurant --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every file it writes (Go build
# cache, binaries, generated inputs, artifacts) stays under .bench_build.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/renuver ] || [ ! -f e2ebench/go.mod ]; then
	echo "e2ebench: run from the repository root (needs go.mod, cmd/renuver and e2ebench/)" >&2
	exit 2
fi

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off CGO_ENABLED=0

go build -o "$out/renuver" ./cmd/renuver
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -renuver "$out/renuver" -work "$out/work" "$@"
