#!/usr/bin/env bash
# Builds the benchmark from source and runs it; arguments pass through
# (--workload NAME --seed N --seconds S --trace 0|1 [--steady N]). Run it
# from the repository root. Everything the build and the run write goes
# under .bench_build/ there.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out/work" "$@"
