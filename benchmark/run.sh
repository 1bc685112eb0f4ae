#!/usr/bin/env bash
# Builds the repository benchmark from the source tree it sits in and runs
# it with the given arguments, from the root of that tree:
#
#   bash benchmark/run.sh --workload embedded-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write (Go build cache, binary, trace
# files) goes under .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOMODCACHE="$out/gopath/mod" GOWORK=off GOTOOLCHAIN=local GOFLAGS=

# The commit when the tree is a git checkout, else a digest of its Go
# sources, so every result names the code it measured.
commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || true)
if [ -z "$commit" ]; then
	commit="src-$(cd "$root" && find . -name '*.go' -not -path './.bench_build/*' -print0 |
		LC_ALL=C sort -z | xargs -0 cat | sha256sum | cut -c1-12)"
fi

(cd "$here" && go build -o "$out/rsmi-benchmark" .)
exec "$out/rsmi-benchmark" --commit "$commit" "$@"
