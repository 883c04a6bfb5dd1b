#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout it is run in, then
# runs it with the given arguments. Run from the repository root:
#
#   bash e2ebench/run.sh --workload xapp-loop --seed 1 --seconds 20 --trace 0
#
# The binary and the Go build cache stay under .bench_build/ in the
# checkout; traced runs write their artefacts under .bench_out/.
set -euo pipefail

root=$PWD
if [[ ! -f $root/go.mod || ! -d $root/internal/ran || ! -f $root/e2ebench/main.go ]]; then
	echo "e2ebench: run from the root of a flexric checkout" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE=$build/gocache GOTMPDIR=$build/tmp GOPATH=$build/gopath \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
go build -o "$build/e2ebench" ./e2ebench
exec "$build/e2ebench" --outdir "$root/.bench_out" "$@"
