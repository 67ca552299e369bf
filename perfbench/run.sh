#!/usr/bin/env bash
# Builds the benchmark binary from the source tree it sits in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload nl-tiled --seed 1 --seconds 25 --trace 0
#
# The binary is built with `go build` (not `go run`) so that it carries the
# VCS stamp when the tree is a git checkout. Every build and run artefact —
# the Go build cache, temporary files, the binary and the run outputs — stays
# under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
# the go command keeps its env file and telemetry counters under the user
# config directory; point it into the build directory too
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off

bin="$out/perfbench"
if ! (cd "$root/perfbench" && go build -o "$bin" . 2>"$out/build.log"); then
	# a tree inside a VCS the toolchain cannot query still builds, unstamped
	(cd "$root/perfbench" && go build -buildvcs=false -o "$bin" .) || {
		cat "$out/build.log" >&2
		exit 2
	}
fi
exec "$bin" "$@"
