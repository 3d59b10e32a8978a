#!/usr/bin/env bash
# Builds the perfbench binary and the commands it measures (odrcoord,
# odrserver) from this checkout's sources, then runs perfbench.
#
# Run from the repository root:
#
#   bash perfbench/run.sh --workload week|coord --seed N --seconds S --trace 0|1
#
# Everything the build and the runs write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, binaries, cached
# reference digests and span dumps.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/odrserver" ] || [ ! -d "$root/internal" ]; then
	echo "perfbench: run from the repository root (go.mod, cmd/ and internal/ not found in $root)" >&2
	exit 2
fi

go_bin=$(command -v go || true)
if [ -z "$go_bin" ] && [ -x /usr/local/go/bin/go ]; then
	go_bin=/usr/local/go/bin/go
fi
if [ -z "$go_bin" ]; then
	echo "perfbench: no go toolchain on PATH" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=-mod=readonly

"$go_bin" build -o "$build/bin/" ./cmd/odrcoord ./cmd/odrserver
(cd "$root/perfbench" && "$go_bin" build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" -bin "$build/bin" -work "$build" "$@"
