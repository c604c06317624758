#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload city --seed 1 --seconds 55 --trace 0
#   bash perfbench/run.sh --selftest     # the benchmark's own tests
#
# The study catalogue lives in cmd/experiments (package main); an overlay
# compiles its files into the benchmark's main package, so the benchmark
# always drives the checkout's own catalogue. Everything the build and
# the runs write stays under $CARGO_TARGET_DIR (default .bench_build)
# inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/experiments" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build/tmp"
build=$(cd "$build" && pwd)

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOENV=off GOWORK=off CGO_ENABLED=0

# Every file of cmd/experiments except its main.go and tests joins the
# benchmark's main package under an exp_ prefix.
replace=""
for f in "$root"/cmd/experiments/*.go; do
	name=$(basename "$f")
	[[ "$name" == main.go || "$name" == *_test.go ]] && continue
	replace+="${replace:+,}\"$root/perfbench/exp_$name\":\"$f\""
done
printf '{"Replace":{%s}}\n' "$replace" >"$build/overlay.json"

cd "$root/perfbench"
if [[ "${1:-}" == "--selftest" ]]; then
	shift
	exec go test -overlay "$build/overlay.json" -count=1 "$@" .
fi
go build -buildvcs=false -overlay "$build/overlay.json" -o "$build/perfbench" .
cd "$root"
exec "$build/perfbench" "$@"
