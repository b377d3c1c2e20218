#!/usr/bin/env bash
# Builds the benchmark and the programs it measures from the source in the
# current directory (the repository root), then runs the benchmark with the
# given arguments. Everything it builds or writes stays under .bench_build.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
# Keep the toolchain's caches and settings inside the checkout.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local CGO_ENABLED=0
mkdir -p "$GOTMPDIR" "$XDG_CONFIG_HOME/go/telemetry"
# With telemetry on, every go command may start a detached sidecar process
# that outlives the build; turning it off keeps the run free of strays.
printf 'off\n' >"$XDG_CONFIG_HOME/go/telemetry/mode"

(cd "$root" && go build -o "$build/bin/" ./cmd/sqlcleand ./cmd/sqlclean) >&2
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .) >&2
exec "$build/bin/perfbench" -bin "$build/bin" "$@"
