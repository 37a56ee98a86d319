#!/usr/bin/env bash
# Builds felipserver and the perfbench program from source into .bench_build/
# (Go build cache included, so nothing is written outside the checkout), then
# runs perfbench from the repository root.
#
#   bash perfbench/run.sh --workload frames-rounds --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh spread --workload analyst -k 5
set -euo pipefail
root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/felipserver" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (felipserver sources not found)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/gopath" "$out/config"
# Keep every file the Go toolchain touches (build cache, module cache,
# telemetry under the user config directory) inside the checkout.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/felipserver" ./cmd/felipserver
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/felipserver" -state "$out/state" "$@"
