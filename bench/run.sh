#!/usr/bin/env bash
# Builds rbbench from this checkout and runs it with the given flags.
# Run from the repository root:
#
#   bash bench/run.sh --workload nw-16k --seed 1 --seconds 20 --trace 0
#
# Go's build cache and temporary files stay inside the checkout, under
# .bench_build/, next to the binaries. rbbench builds cmd/rbexp there
# too, for the sweep-serve workload.
set -euo pipefail

root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/bench/go.mod" ]; then
	echo "bench/run.sh: run from the repository root" >&2
	exit 2
fi
out=$root/.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOTOOLCHAIN=local
(cd "$root/bench" && go build -o "$out/rbbench" ./cmd/rbbench)
exec "$out/rbbench" -root "$root" "$@"
