#!/usr/bin/env bash
# Builds the perfbench binary from this checkout and runs it with the
# given arguments. Every build artifact, Go cache and temporary file
# stays under .bench_build/ in the current directory (the checkout
# root), which .gitignore excludes. Fails (non-zero exit, no result)
# when the program source is missing from the checkout.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod in $root: the program source is not in this checkout" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
