#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload live_frame --seed 1 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .bench_build/.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
# The module replaces repro with the parent directory, so the build
# fails (and no result is printed) where the repository sources are absent.
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --root "$root" --commit "$commit" "$@"
