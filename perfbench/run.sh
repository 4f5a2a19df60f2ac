#!/usr/bin/env bash
# Builds the benchmark and dmfserve from the source tree it sits in, then
# runs one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-frozen --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binaries, per-run scratch
# directories (removed when a run ends) and the span files of traced runs.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/perfbench/go.mod" ] || [ ! -f "$root/go.mod" ]; then
	echo "perfbench: run from the root of a dmfsgd source tree" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/xdg"
export GOTOOLCHAIN=local
export GOFLAGS=

go build -o "$out/bin/dmfserve" ./cmd/dmfserve
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" -serve-bin "$out/bin/dmfserve" -out "$out" "$@"
