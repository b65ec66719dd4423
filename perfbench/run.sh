#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the repository
# root; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload bulk-ingest --seed 1 --seconds 20 --trace 0
#
# The build cache, the binary and the traced run's spans live under
# .bench_build at the repository root, so a run writes nothing outside
# the checkout. The benchmark module replaces discoverxfd with the
# checkout itself, so without the rest of the repository the build
# fails and the script exits non-zero without printing a result.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOTELEMETRY=off

(cd "$bench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
