#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload hit --seed 1 --seconds 15 --trace 0
#
# The build cache, the binary and every file a run writes stay under
# $CARGO_TARGET_DIR (default .bench_build) in the current directory.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -f perfbench/go.mod ]; then
	echo "perfbench: run from the repository root (module sources not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/home" "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"

# Keep the toolchain's caches, config and telemetry inside the checkout.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" TMPDIR="$out/tmp" \
	GOCACHE="$out/gocache" GOPATH="$out/home/go" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOWORK=off

(cd perfbench && go build -o "$out/perfbench" .)
export PERFBENCH_OUT="$out"
exec "$out/perfbench" "$@"
