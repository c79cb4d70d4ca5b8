#!/usr/bin/env bash
# Builds perfbench from the sources in the current checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-mono --seed 1 --seconds 20 --trace 0
#
# Every build artefact (binary, Go build cache) goes under .bench_build/
# in the checkout, and the Go tool is kept off the network.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the root of a geoserp checkout" >&2
	exit 2
fi
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
