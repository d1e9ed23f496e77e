#!/usr/bin/env bash
# Builds the openmxsim benchmark from the checkout's sources and runs it.
# Usage (from the repository root):
#   bash perfbench/run.sh --workload nas --seed 1 --seconds 35 --trace 0
# Every build output, cache and temporary file stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOPROXY=off

# Rebuild only when a Go source or module file changed since the last build.
stamp=$(cat go.mod perfbench/go.mod $(find internal perfbench -name '*.go' -o -name '*.json' | LC_ALL=C sort) | sha256sum | cut -d' ' -f1)
bin="$out/perfbench"
if [[ ! -x "$bin" || "$(cat "$out/stamp" 2>/dev/null)" != "$stamp" ]]; then
	(cd perfbench && go build -buildvcs=false -o "$bin" .) >&2
	echo "$stamp" >"$out/stamp"
fi
# The checkout need not be a git repository; the commit is then "unknown".
commit=$(git rev-parse HEAD 2>/dev/null || echo unknown)
exec "$bin" -out "$out" -commit "$commit" "$@"
