#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see README.md). Run it from the repository root:
#
#   bash bench/run.sh -workload tv-campaign -seconds 20 -trace 0
#
# The Go build cache, temporary files and the binary live under
# $CARGO_TARGET_DIR (default .bench_build), so nothing is written outside
# the checkout. Outside a full checkout the build fails and the script
# exits nonzero without printing a result.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/tmp"

export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp \
	XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

(cd "$root/bench" && go build -o "$build/bench" .)
cd "$root"
exec "$build/bench" -out "$root/bench/out" "$@"
