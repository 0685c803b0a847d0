#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it.
#
#   bash perfbench/run.sh --workload sim-configs --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Every build and run product stays under
# .perfbench/ in that root: the Go build cache, the binary, the spans a
# traced run writes, and each run's scratch directories.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of an mlcache source tree (go.mod, internal/ and perfbench/ not found in $root)" >&2
	exit 2
fi

command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

out="$root/.perfbench"
mkdir -p "$out/home" "$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOFLAGS=
export GOPROXY=off
export GOTOOLCHAIN=local
export GOTELEMETRY=off

if ! (cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2; then
	echo "perfbench: build failed" >&2
	exit 2
fi
exec "$out/perfbench" "$@"
